#ifndef SQUID_ADB_DERIVED_RELATION_H_
#define SQUID_ADB_DERIVED_RELATION_H_

/// \file derived_relation.h
/// \brief Materializes derived relations (§5, Fig. 5): for a property
/// descriptor with fact hops, produces the αDB table
/// `(entity_id, value, count, frac)` — e.g. persontogenre stores how many
/// movies of each genre each person appeared in (paper query Q6).

#include <memory>

#include "adb/schema_graph.h"
#include "common/status.h"
#include "storage/database.h"

namespace squid {

/// \brief Materializes the derived relation for `desc` against `db`.
///
/// The produced table has schema (entity_id, value, count, frac):
///  - entity_id: the entity's primary key value;
///  - value: the terminal property value — a string for categorical
///    descriptors, the associated entity's key for kDerivedEntity, and the
///    bucket index for kDerivedNumericBucket (count of associates with
///    attr >= bucket_thresholds[value]);
///  - count: the association strength θ (number of path instances);
///  - frac: count / total, where total is the entity's number of path
///    instances reaching a non-null terminal (for buckets: one per
///    associate, not one per bucket).
///
/// Ordering: rows are sorted by entity_id, then value, both in
/// Value::Compare order. Entity rows whose keys compare equal merge into
/// one entity, and values that compare equal (-0.0 and 0.0) into one value;
/// a merged key or value is written as its first path instance in entity
/// row order. NaN, which Value::Compare cannot order, sorts after every
/// number.
///
/// Traversal is typed: the frontier holds (entity row, current row) pairs,
/// and every hop probes a HashColumnIndex with packed keys (symbols for
/// strings, exact bits for int64, PackedDoubleBits for doubles). A probe of
/// the other numeric type converts exactly as HashColumnIndex::Lookup does
/// for a Value (1 == 1.0; 2.5 reaches no int64 key), so cross-type FK/PK
/// pairs join as Value equality would. Traversals that return to the origin
/// entity (e.g. co-actor paths) skip arrivals whose key equals the origin's
/// under Value ==, so an entity is never its own associate.
///
/// Thread-safe for concurrent calls over one database: the table shares
/// `db`'s pool and string cells of tables on that pool are copied by
/// symbol, so nothing is interned; the output depends only on the data
/// (byte-identical at any build thread count).
Result<std::shared_ptr<Table>> MaterializeDerivedRelation(
    const Database& db, const PropertyDescriptor& desc);

}  // namespace squid

#endif  // SQUID_ADB_DERIVED_RELATION_H_
