// The PRIMALITY enumeration algorithm of §5.3: compute *all* prime attributes
// in linear time via one bottom-up pass (solve) and one top-down pass
// (solve↓), reading prime(a) off at the leaves. The naive alternative — one
// §5.2 decision run per attribute with the decomposition re-rooted each time
// — is quadratic and provided as the baseline the section argues against.
#ifndef TREEDL_CORE_PRIMALITY_ENUM_HPP_
#define TREEDL_CORE_PRIMALITY_ENUM_HPP_

#include <vector>

#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "engine/run_stats.hpp"
#include "schema/encode.hpp"
#include "schema/schema.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl::core {

/// Membership vector of prime attributes, two-pass linear algorithm. The
/// preparation flow runs as a named pass pipeline: validate → rhs-closure →
/// normalize (enumeration form: leaf coverage + branch copies).
StatusOr<std::vector<bool>> EnumeratePrimes(const Schema& schema,
                                            const SchemaEncoding& encoding,
                                            const TreeDecomposition& td,
                                            RunStats* stats = nullptr);

/// The quadratic baseline: one decision run per attribute ("obviously, this
/// method has quadratic time complexity" — §5.3).
StatusOr<std::vector<bool>> EnumeratePrimesQuadratic(
    const Schema& schema, const SchemaEncoding& encoding,
    const TreeDecomposition& td);

}  // namespace treedl::core

#endif  // TREEDL_CORE_PRIMALITY_ENUM_HPP_
