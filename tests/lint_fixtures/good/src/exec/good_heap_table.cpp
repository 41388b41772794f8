// Known-good fixture for scripts/check_invariants.py (exec-arena): a
// per-query executor table on plain heap vectors. Comments may still name
// MemArena (say, to explain why it is not used). Never compiled.
#include <cstdint>
#include <vector>

namespace squid {

class GoodPerQueryTable {
 public:
  explicit GoodPerQueryTable(size_t cap) : slots_(cap, 0) {}

  size_t ApproxBytes() const { return slots_.capacity() * sizeof(uint32_t); }

 private:
  std::vector<uint32_t> slots_;  // not an ArenaVector: lives for one query
};

}  // namespace squid
