// Bench parameter grids declared as data.
//
// A grid is a list of axes declared outermost first. Its cells are the
// mixed-radix product of the axes in declaration order, which is exactly the
// order of the nested loops a bench would otherwise write. The grid owns one
// decision per concern:
//
//   labels  every axis value contributes one label segment; the non-empty
//           segments are joined with the grid's separator in label order
//           (declaration order unless label_order says otherwise). An off/on
//           countermeasure axis (`toggle`) contributes its suffix only when
//           on, so adding the axis leaves every off cell's label unchanged.
//   seeds   a twin axis does not advance the seed index: its cells simulate
//           the same world as their off twin, and every other cell keeps the
//           seed it had before the axis existed. run_grid seeds each point
//           with point_seed(base_seed, seed_index).
//   twins   the cell that differs from a given one only on one axis.
#ifndef MCC_EXP_GRID_H
#define MCC_EXP_GRID_H

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"

namespace mcc::exp {

class grid {
 public:
  /// A declared axis: its position in declaration order.
  struct axis_id {
    std::size_t pos = 0;
  };
  /// A declared axis together with its typed values.
  template <typename T>
  struct axis : axis_id {
    std::vector<T> values;
  };

  explicit grid(std::string separator = "/") : sep_(std::move(separator)) {}

  /// A plain axis: value v contributes segment(v) to the label.
  template <typename T, typename Segment>
  axis<T> add(std::vector<T> values, Segment segment) {
    std::vector<std::string> segs;
    for (const T& v : values) segs.emplace_back(segment(v));
    return {push(std::move(segs), false), std::move(values)};
  }
  /// A plain axis of names, each its own label segment.
  axis<std::string> add(std::vector<std::string> values) {
    return add(std::move(values), [](const std::string& v) { return v; });
  }
  /// An off/on countermeasure axis (values in off-first order; a value is on
  /// when it differs from T{}): contributes `suffix` only where on. A `twin`
  /// axis does not advance the seed index.
  template <typename T>
  axis<T> toggle(std::vector<T> values, const std::string& suffix,
                 bool twin = false) {
    std::vector<std::string> segs;
    for (const T& v : values) segs.push_back(v != T{} ? suffix : "");
    return {push(std::move(segs), twin), std::move(values)};
  }

  /// Orders the label segments; every axis must appear once.
  void label_order(const std::vector<axis_id>& order);

  /// Number of cells (the product of the axis sizes).
  [[nodiscard]] std::size_t size() const;
  /// Cell i's value position on axis a.
  [[nodiscard]] std::size_t at(std::size_t i, axis_id a) const;
  /// Cell i's value on axis a.
  template <typename T>
  [[nodiscard]] typename std::vector<T>::const_reference value(
      std::size_t i, const axis<T>& a) const {
    return a.values[at(i, a)];
  }
  [[nodiscard]] std::string label(std::size_t i) const;
  /// Cell i's mixed-radix index over the non-twin axes.
  [[nodiscard]] std::size_t seed_index(std::size_t i) const;
  /// The row of the cell equal to cell i except that axis a takes its v-th
  /// value; nullptr when the axis has no v-th value.
  [[nodiscard]] const sweep_row* twin(const std::vector<sweep_row>& rows,
                                      std::size_t i, axis_id a,
                                      std::size_t v) const;
  /// Every (off, on) pair of cells that differ only on axis a, where a takes
  /// its first value in `off` and its second in `on`, in cell order. Empty
  /// when the axis has a single value.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> pairs(
      axis_id a) const;

 private:
  struct axis_data {
    std::vector<std::string> segments;
    bool twin = false;
  };

  axis_id push(std::vector<std::string> segments, bool twin);
  /// Cells between consecutive values of axis a.
  [[nodiscard]] std::size_t stride(axis_id a) const;

  std::string sep_;
  std::vector<axis_data> axes_;
  std::vector<std::size_t> label_order_;
};

/// Runs every cell of `g` through run_sweep: point i gets x = i and seed
/// point_seed(opts.base_seed, g.seed_index(i)), and its row the label
/// g.label(i).
std::vector<sweep_row> run_grid(
    const grid& g, const sweep_options& opts,
    const std::function<sweep_row(const sweep_point&)>& fn);

}  // namespace mcc::exp

#endif  // MCC_EXP_GRID_H
