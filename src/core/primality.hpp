// The PRIMALITY decision algorithm of §5.2 (Fig. 6): given a relational
// schema (R, F) of bounded treewidth and an attribute a, decide whether a is
// prime (belongs to some key), in time f(w)·|(R, F)|.
#ifndef TREEDL_CORE_PRIMALITY_HPP_
#define TREEDL_CORE_PRIMALITY_HPP_

#include "common/status.hpp"
#include "core/tree_dp.hpp"
#include "engine/run_stats.hpp"
#include "schema/encode.hpp"
#include "schema/schema.hpp"
#include "td/tree_decomposition.hpp"

namespace treedl::core {

/// Decides primality of `a` using the supplied raw decomposition of the
/// encoded structure. The preparation flow runs as a named pass pipeline
/// (engine/passes.hpp): validate → rhs-closure → re-root at a bag containing
/// a → normalize (modified form, FD-first forget order); then the bottom-up
/// solve() DP and the success test at the root.
StatusOr<bool> IsPrimeViaTd(const Schema& schema, const SchemaEncoding& encoding,
                            const TreeDecomposition& td, AttributeId a,
                            RunStats* stats = nullptr);

}  // namespace treedl::core

#endif  // TREEDL_CORE_PRIMALITY_HPP_
