#include "core/cost_model.h"

#include <cmath>

#include "util/logging.h"

namespace cqc {

CostModel::CostModel(const std::vector<BoundAtom>* atoms,
                     std::vector<double> exponents)
    : atoms_(atoms), exponents_(std::move(exponents)) {
  CQC_CHECK_EQ(atoms_->size(), exponents_.size());
}

namespace {

double Pow(size_t count, double e) {
  if (count == 0) return 0.0;
  if (e == 0.0) return 1.0;
  if (e == 1.0) return (double)count;
  return std::pow((double)count, e);
}

}  // namespace

double CostModel::BoxCost(const FBox& box) const {
  double t = 1.0;
  for (size_t f = 0; f < atoms_->size() && t > 0; ++f)
    t *= Pow((*atoms_)[f].CountBox(box), exponents_[f]);
  return t;
}

double CostModel::BoxCostBound(TupleSpan bound_vals, const FBox& box) const {
  double t = 1.0;
  for (size_t f = 0; f < atoms_->size() && t > 0; ++f)
    t *= Pow((*atoms_)[f].CountBoundBox(bound_vals, box), exponents_[f]);
  return t;
}

double CostModel::BoxesCost(const std::vector<FBox>& boxes) const {
  double t = 0.0;
  for (const FBox& b : boxes) t += BoxCost(b);
  return t;
}

double CostModel::BoxesCostBound(TupleSpan bound_vals,
                                 const std::vector<FBox>& boxes) const {
  double t = 0.0;
  for (const FBox& b : boxes) t += BoxCostBound(bound_vals, b);
  return t;
}

double CostModel::IntervalCost(const FInterval& interval) const {
  if (interval.Empty()) return 0.0;
  return BoxesCost(BoxDecompose(interval));
}

double CostModel::IntervalCostBound(TupleSpan bound_vals,
                                    const FInterval& interval) const {
  if (interval.Empty()) return 0.0;
  return BoxesCostBound(bound_vals, BoxDecompose(interval));
}

}  // namespace cqc
