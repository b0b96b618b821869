#include "exp/report.h"

#include <cmath>
#include <iomanip>

#include "sim/stats.h"

namespace mcc::exp {

void print_series(std::ostream& os, const std::string& title, const series& s,
                  double x_min, double x_max) {
  os << "# " << title << "\n";
  for (const auto& [x, y] : s) {
    if (x < x_min || x > x_max) continue;
    os << std::fixed << std::setprecision(3) << x << " "
       << std::setprecision(2) << y << "\n";
  }
  os << "\n";
}

void print_columns(std::ostream& os, const std::string& title,
                   const std::vector<std::string>& labels,
                   const std::vector<series>& columns, double x_min,
                   double x_max) {
  os << "# " << title << "\n# x";
  for (const auto& l : labels) os << " " << l;
  os << "\n";
  if (columns.empty()) return;
  const std::size_t rows = columns.front().size();
  for (std::size_t i = 0; i < rows; ++i) {
    const double x = columns.front()[i].first;
    if (x < x_min || x > x_max) continue;
    os << std::fixed << std::setprecision(3) << x;
    for (const auto& col : columns) {
      if (i < col.size() && std::abs(col[i].first - x) < 1e-9) {
        os << " " << std::setprecision(2) << col[i].second;
      } else {
        os << " -";
      }
    }
    os << "\n";
  }
  os << "\n";
}

void print_check(std::ostream& os, const std::string& what,
                 const std::string& paper_says, double measured,
                 const std::string& unit) {
  os << "CHECK  " << what << ": paper=" << paper_says << "  measured="
     << std::fixed << std::setprecision(2) << measured << " " << unit << "\n";
}

void print_count_check(std::ostream& os, const std::string& what,
                       const std::string& paper_says, int held, int of) {
  if (of == 0) return;
  print_check(os, what, paper_says, static_cast<double>(held),
              "of " + std::to_string(of));
}

series ewma_smooth(const series& raw, double weight) {
  series out;
  out.reserve(raw.size());
  // The smoother's whole state lives in this frame: two calls can never
  // observe each other, which is the no-shared-smoothing-state contract.
  double state = 0.0;
  bool first = true;
  for (const auto& [x, y] : raw) {
    state = first ? y : (1.0 - weight) * state + weight * y;
    first = false;
    out.emplace_back(x, state);
  }
  return out;
}

session_rollup roll_up_sessions(const std::vector<session_sample>& sessions,
                                double smooth_weight) {
  session_rollup out;
  std::vector<double> rates;
  rates.reserve(sessions.size());
  for (const session_sample& s : sessions) {
    session_column col;
    col.name = s.name;
    col.rate = s.rate;
    col.smoothed = ewma_smooth(s.raw, smooth_weight);
    out.total_rate += s.rate;
    rates.push_back(s.rate);
    out.sessions.push_back(std::move(col));
  }
  out.jain = sim::jain_fairness_index(rates);
  return out;
}

}  // namespace mcc::exp
