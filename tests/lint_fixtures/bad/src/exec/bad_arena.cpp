// Known-bad fixture for scripts/check_invariants.py (exec-arena): a
// per-query executor table backed by an arena, which maps and unmaps a
// block on every query. Never compiled.
#include <cstdint>
#include <memory>

#include "common/mem_arena.h"

namespace squid {

class BadPerQueryTable {
 public:
  BadPerQueryTable()
      : arena_(std::make_shared<MemArena>()),
        rows_(ArenaAllocator<uint32_t>(arena_)) {}

 private:
  std::shared_ptr<MemArena> arena_;
  ArenaVector<uint32_t> rows_;
};

}  // namespace squid
