#include "exp/grid.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/require.h"

namespace mcc::exp {
namespace {

/// Rows whose "cell" value is their grid index, as run_grid returns them.
std::vector<sweep_row> index_rows(const grid& g) {
  std::vector<sweep_row> rows(g.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].value("cell", static_cast<double>(i));
  }
  return rows;
}

TEST(grid, cell_order_is_the_nested_loop_order) {
  grid g;
  const auto topo = g.add({"dumbbell", "tree"});
  const auto size = g.add(std::vector<int>{2, 8, 64},
                          [](int n) { return "n" + std::to_string(n); });
  const auto cm = g.toggle(std::vector<bool>{false, true}, "cm");
  ASSERT_EQ(g.size(), 12u);
  std::size_t i = 0;
  for (const char* t : {"dumbbell", "tree"}) {
    for (const int n : {2, 8, 64}) {
      for (const bool c : {false, true}) {
        EXPECT_EQ(g.value(i, topo), t);
        EXPECT_EQ(g.value(i, size), n);
        EXPECT_EQ(g.value(i, cm), c);
        ++i;
      }
    }
  }
}

TEST(grid, twin_axis_cells_share_their_off_twins_seed_index) {
  // The attack matrix's historical seed_index: one count per cm-off point,
  // shared by every cm variant of that point.
  grid g;
  (void)g.add({"inflate_once", "collusion", "deaf_receiver"});
  (void)g.add({"dumbbell", "tree"});
  const auto keying = g.toggle(std::vector<bool>{false, true}, "keyed");
  const auto cm = g.toggle(std::vector<bool>{false, true}, "cm",
                           /*twin=*/true);
  std::vector<std::size_t> old_seed_index;
  std::size_t seed_index = 0;
  for (int s = 0; s < 3; ++s) {
    for (int t = 0; t < 2; ++t) {
      for (int k = 0; k < 2; ++k) {
        for (int c = 0; c < 2; ++c) old_seed_index.push_back(seed_index);
        ++seed_index;
      }
    }
  }
  ASSERT_EQ(g.size(), old_seed_index.size());
  const std::vector<sweep_row> rows = index_rows(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.seed_index(i), old_seed_index[i]) << "cell " << i;
    const auto off = static_cast<std::size_t>(
        g.twin(rows, i, cm, 0)->value_of("cell"));
    EXPECT_EQ(g.seed_index(i), g.seed_index(off));
    if (!g.value(i, keying)) {
      const auto keyed = static_cast<std::size_t>(
          g.twin(rows, i, keying, 1)->value_of("cell"));
      EXPECT_NE(g.seed_index(i), g.seed_index(keyed))
          << "a plain axis advances the seed index";
    }
  }

  // Without twin axes the seed index is the cell index, and run_grid seeds
  // each point exactly as run_sweep would.
  grid plain;
  (void)plain.add({"a", "b", "c"});
  (void)plain.toggle(std::vector<int>{0, 8}, "mem");
  sweep_options opts;
  opts.base_seed = 11;
  const auto seeded = run_grid(plain, opts, [](const sweep_point& pt) {
    sweep_row row;
    row.value("seed_matches", pt.seed == point_seed(11, pt.index) ? 1 : 0);
    return row;
  });
  for (std::size_t i = 0; i < seeded.size(); ++i) {
    EXPECT_EQ(plain.seed_index(i), i);
    EXPECT_EQ(seeded[i].value_of("seed_matches"), 1.0);
    EXPECT_EQ(seeded[i].x, static_cast<double>(i));
  }
}

TEST(grid, labels_skip_off_suffixes_and_follow_the_label_order) {
  grid g;
  const auto members = g.add(std::vector<long>{1000, 1000000}, [](long n) {
    return "pop" + std::to_string(n);
  });
  const auto topo = g.add({"dumbbell"});
  const auto attack = g.add({"none", "inflate_once"});
  const auto memory = g.toggle(std::vector<int>{0, 8}, "mem");
  EXPECT_EQ(g.label(0), "pop1000/dumbbell/none");
  EXPECT_EQ(g.label(1), "pop1000/dumbbell/none/mem");
  g.label_order({topo, members, attack, memory});
  EXPECT_EQ(g.label(0), "dumbbell/pop1000/none");
  EXPECT_EQ(g.label(3), "dumbbell/pop1000/inflate_once/mem");
  EXPECT_EQ(g.label(6), "dumbbell/pop1000000/inflate_once");
  EXPECT_THROW(g.label_order({topo, members, attack}), util::invariant_error);
  EXPECT_THROW(g.label_order({topo, topo, attack, memory}),
               util::invariant_error);

  // An axis that is on only adds its suffix to every cell; the separator is
  // the grid's.
  grid on_only("_");
  (void)on_only.add(std::vector<int>{8, 16},
                    [](int b) { return "b" + std::to_string(b); });
  (void)on_only.toggle(std::vector<bool>{true}, "keyed");
  EXPECT_EQ(on_only.label(0), "b8_keyed");
  EXPECT_EQ(on_only.label(1), "b16_keyed");

  sweep_options opts;
  const auto rows = run_grid(g, opts, [](const sweep_point&) {
    sweep_row row;
    row.label = "overwritten";
    return row;
  });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].label, g.label(i));
  }
}

TEST(grid, twin_is_the_cell_that_differs_on_one_axis_only) {
  grid g;
  const auto strategy = g.add({"collusion", "adaptive_churn"});
  const auto topo = g.add({"dumbbell", "parking_lot", "tree"});
  const auto cm = g.toggle(std::vector<bool>{false, true}, "cm");
  const std::vector<sweep_row> rows = index_rows(g);
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (std::size_t v = 0; v < 3; ++v) {
      const sweep_row* twin = g.twin(rows, i, topo, v);
      ASSERT_NE(twin, nullptr);
      const auto j = static_cast<std::size_t>(twin->value_of("cell"));
      EXPECT_EQ(g.at(j, topo), v);
      EXPECT_EQ(g.value(j, strategy), g.value(i, strategy));
      EXPECT_EQ(g.value(j, cm), g.value(i, cm));
    }
    EXPECT_EQ(g.label(static_cast<std::size_t>(
                  g.twin(rows, i, cm, 1)->value_of("cell"))),
              g.value(i, cm) ? g.label(i) : g.label(i) + "/cm");
    EXPECT_EQ(g.twin(rows, i, cm, 2), nullptr) << "no third cm value";
    EXPECT_EQ(g.twin(rows, i, topo, 3), nullptr);
  }
  EXPECT_THROW((void)g.twin(std::vector<sweep_row>(3), 0, cm, 1),
               util::invariant_error)
      << "rows of another grid";
  EXPECT_THROW((void)g.twin(rows, g.size(), cm, 1), util::invariant_error);
  EXPECT_THROW((void)grid{}.add(std::vector<std::string>{}),
               util::invariant_error)
      << "an axis without values";

  // A collapsed countermeasure axis (one value) has no twin to pair with.
  grid collapsed;
  (void)collapsed.add({"inflate_once", "collusion"});
  const auto keying = collapsed.toggle(std::vector<bool>{false}, "keyed");
  const std::vector<sweep_row> collapsed_rows = index_rows(collapsed);
  EXPECT_EQ(collapsed.twin(collapsed_rows, 0, keying, 1), nullptr);
  EXPECT_EQ(collapsed.twin(collapsed_rows, 1, keying, 0),
            &collapsed_rows[1]);
}

}  // namespace
}  // namespace mcc::exp
