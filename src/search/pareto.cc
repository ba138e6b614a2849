#include "search/pareto.h"

namespace automc {
namespace search {

bool Dominates(const std::pair<double, double>& x,
               const std::pair<double, double>& y) {
  return x.first >= y.first && x.second >= y.second &&
         (x.first > y.first || x.second > y.second);
}

std::vector<size_t> ParetoFrontIndices(
    const std::vector<std::pair<double, double>>& points) {
  // The O(n^2) domination test keeps every point no other point dominates,
  // in increasing index order.
  std::vector<size_t> front;
  for (size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < points.size() && !dominated; ++j) {
      dominated = j != i && Dominates(points[j], points[i]);
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

}  // namespace search
}  // namespace automc
