// The AGM-style cost model of §4.2:
//
//   T(B)    = prod_F |R_F ⋉ B| ^ u^_F          (u^ = u / alpha(V_f))
//   T(v,B)  = prod_F |R_F(v) ⋉ B| ^ u^_F
//   T(I)    = sum over the box decomposition of I
//   T(v,I)  = likewise with the bound valuation fixed
//
// T(v, I) bounds the time a worst-case optimal join needs to evaluate the
// access request restricted to I (Prop. 6); a pair (v, I) is tau-heavy when
// T(v, I) > tau (Def. 3). All counts are O(arity log N) via BoundAtom.
#ifndef CQC_CORE_COST_MODEL_H_
#define CQC_CORE_COST_MODEL_H_

#include <vector>

#include "core/finterval.h"
#include "join/bound_atom.h"

namespace cqc {

class CostModel {
 public:
  /// `atoms` must outlive the model. `exponents[f]` = u^_F for atom f.
  CostModel(const std::vector<BoundAtom>* atoms,
            std::vector<double> exponents);

  double BoxCost(const FBox& box) const;
  double BoxCostBound(TupleSpan bound_vals, const FBox& box) const;

  double IntervalCost(const FInterval& interval) const;
  double IntervalCostBound(TupleSpan bound_vals,
                           const FInterval& interval) const;

  /// Sum of BoxCost over an explicit box list.
  double BoxesCost(const std::vector<FBox>& boxes) const;
  double BoxesCostBound(TupleSpan bound_vals,
                        const std::vector<FBox>& boxes) const;

  const std::vector<double>& exponents() const { return exponents_; }

 private:
  const std::vector<BoundAtom>* atoms_;
  std::vector<double> exponents_;
};

}  // namespace cqc

#endif  // CQC_CORE_COST_MODEL_H_
