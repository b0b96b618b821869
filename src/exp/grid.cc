#include "exp/grid.h"

#include <algorithm>

#include "util/require.h"

namespace mcc::exp {

grid::axis_id grid::push(std::vector<std::string> segments, bool twin) {
  util::require(!segments.empty(), "grid: an axis needs at least one value");
  label_order_.push_back(axes_.size());
  axes_.push_back({std::move(segments), twin});
  return {axes_.size() - 1};
}

void grid::label_order(const std::vector<axis_id>& order) {
  std::vector<std::size_t> positions;
  for (const axis_id a : order) positions.push_back(a.pos);
  // label_order_ always holds every axis exactly once.
  util::require(std::is_permutation(positions.begin(), positions.end(),
                                    label_order_.begin(), label_order_.end()),
                "grid::label_order: every axis must appear once");
  label_order_ = std::move(positions);
}

std::size_t grid::size() const {
  std::size_t n = 1;
  for (const axis_data& a : axes_) n *= a.segments.size();
  return n;
}

std::size_t grid::stride(axis_id a) const {
  std::size_t s = 1;
  for (std::size_t p = a.pos + 1; p < axes_.size(); ++p) {
    s *= axes_[p].segments.size();
  }
  return s;
}

std::size_t grid::at(std::size_t i, axis_id a) const {
  return i / stride(a) % axes_[a.pos].segments.size();
}

std::string grid::label(std::size_t i) const {
  std::string out;
  for (const std::size_t p : label_order_) {
    const std::string& seg = axes_[p].segments[at(i, {p})];
    if (seg.empty()) continue;
    if (!out.empty()) out += sep_;
    out += seg;
  }
  return out;
}

std::size_t grid::seed_index(std::size_t i) const {
  std::size_t index = 0;
  for (std::size_t p = 0; p < axes_.size(); ++p) {
    if (!axes_[p].twin) index = index * axes_[p].segments.size() + at(i, {p});
  }
  return index;
}

const sweep_row* grid::twin(const std::vector<sweep_row>& rows, std::size_t i,
                            axis_id a, std::size_t v) const {
  util::require(rows.size() == size() && i < size(),
                "grid::twin: not a cell of this grid's rows", i);
  if (v >= axes_[a.pos].segments.size()) return nullptr;
  return &rows[i - at(i, a) * stride(a) + v * stride(a)];
}

std::vector<std::pair<std::size_t, std::size_t>> grid::pairs(
    axis_id a) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (axes_[a.pos].segments.size() < 2) return out;
  for (std::size_t i = 0; i < size(); ++i) {
    if (at(i, a) == 0) out.emplace_back(i, i + stride(a));
  }
  return out;
}

std::vector<sweep_row> run_grid(
    const grid& g, const sweep_options& opts,
    const std::function<sweep_row(const sweep_point&)>& fn) {
  std::vector<double> xs(g.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  return run_sweep(xs, opts, [&](const sweep_point& pt) {
    sweep_point cell = pt;
    cell.seed = point_seed(opts.base_seed, g.seed_index(pt.index));
    sweep_row row = fn(cell);
    row.label = g.label(pt.index);
    return row;
  });
}

}  // namespace mcc::exp
