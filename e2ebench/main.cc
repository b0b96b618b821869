// End-to-end simulator benchmark: builds a named workload's worlds through
// the public exp::testbed API, times them from outside (set-up, each
// simulated second of run_until, analysis, metrics snapshot), checks every
// world's outputs, and prints the metrics by name with their units. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). README.md documents every metric and workload.
//
//   e2ebench --workload fig07|farm64|attack_grid --seed N --seconds S
//            --trace 0|1 [--spans PATH]
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "metric_math.h"
#include "workloads.h"

namespace {

namespace sim = mcc::sim;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

enum span_kind : int { k_build, k_slice, k_allow, k_ctrl, k_analysis,
                       k_snapshot, k_kinds };
constexpr const char* kind_name[k_kinds] = {
    "exp.build",       "sim.slice",    "core.sigma.allow",
    "core.sigma.ctrl", "exp.analysis", "obs.snapshot"};

/// One world's spans, in memory until the run ends. A world runs on one
/// sweep thread, so its log needs no locking.
class span_log {
 public:
  int open(int kind) {
    spans_.push_back({kind, top_, now_ns(), 0});
    top_ = static_cast<int>(spans_.size()) - 1;
    return top_;
  }
  void close(int id) {
    e2e::span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    top_ = s.parent;
  }
  std::vector<e2e::span>& spans() { return spans_; }

 private:
  std::vector<e2e::span> spans_;
  int top_ = -1;
};

/// Times one phase; records a span too when the world is traced.
class phase {
 public:
  phase(span_log* log, int kind)
      : log_(log), id_(log != nullptr ? log->open(kind) : -1),
        t0_(now_ns()) {}
  /// Closes the phase; returns its host seconds.
  double end() {
    const std::int64_t t1 = now_ns();
    if (log_ != nullptr) log_->close(id_);
    return static_cast<double>(t1 - t0_) * 1e-9;
  }

 private:
  span_log* log_;
  int id_;
  std::int64_t t0_;
};

/// Timing wrapper at the access-policy seam: every SIGMA allow() decision.
class timed_policy final : public sim::access_policy {
 public:
  timed_policy(sim::access_policy& inner, span_log& log)
      : inner_(inner), log_(log) {}
  bool allow(sim::packet& p, sim::link* oif) override {
    const int s = log_.open(k_allow);
    const bool ok = inner_.allow(p, oif);
    log_.close(s);
    return ok;
  }

 private:
  sim::access_policy& inner_;
  span_log& log_;
};

/// Timing wrapper at the router-alert seam: SIGMA control shards, including
/// the crypto shard decode they trigger.
class timed_alert final : public sim::agent {
 public:
  timed_alert(sim::agent& inner, span_log& log) : inner_(inner), log_(log) {}
  bool handle_packet(const sim::packet& p, sim::link* arrival) override {
    const int s = log_.open(k_ctrl);
    const bool consumed = inner_.handle_packet(p, arrival);
    log_.close(s);
    return consumed;
  }

 private:
  sim::agent& inner_;
  span_log& log_;
};

// ---------------------------------------------------------------------------
// One world
// ---------------------------------------------------------------------------

struct counts {
  double events = 0, hops = 0, mcast_forwards = 0, enqueued = 0, dropped = 0;
  double max_pending = 0, slots_high_water = 0, igmp_joins = 0,
         igmp_leaves = 0, valid_keys = 0, invalid_keys = 0, cm_lookups = 0,
         cm_capped = 0, snapshot_entries = 0;

  void add(const counts& o) {
    events += o.events;
    hops += o.hops;
    mcast_forwards += o.mcast_forwards;
    enqueued += o.enqueued;
    dropped += o.dropped;
    max_pending = std::max(max_pending, o.max_pending);
    slots_high_water = std::max(slots_high_water, o.slots_high_water);
    igmp_joins += o.igmp_joins;
    igmp_leaves += o.igmp_leaves;
    valid_keys += o.valid_keys;
    invalid_keys += o.invalid_keys;
    cm_lookups += o.cm_lookups;
    cm_capped += o.cm_capped;
    snapshot_entries += o.snapshot_entries;
  }
};

struct world_result {
  e2e::world_outcome outcome;
  double sim_s = 0;        // host seconds of the simulate phase
  double sim_seconds = 0;  // simulated seconds
  std::vector<double> slice_ms;
  counts c;
  std::vector<e2e::span> spans;  // traced worlds only
  std::int64_t start_ns = 0, end_ns = 0;
};

/// Sum (or max) of a snapshot metric over all its label sets.
double metric_sum(const mcc::obs::metric_snapshot& snap,
                  const std::string& name, bool take_max = false) {
  double v = 0.0;
  for (const auto& [flat, value] : snap) {
    if (flat == name || flat.rfind(name + "{", 0) == 0) {
      v = take_max ? std::max(v, value) : v + value;
    }
  }
  return v;
}

e2e::link_sample sample_of(const sim::link& l) {
  const sim::link_stats& s = l.stats();
  e2e::link_sample out;
  out.enqueued = s.enqueued;
  out.delivered = s.delivered;
  out.dropped = s.dropped;
  out.aqm_dropped = s.aqm_dropped;
  out.dequeue_dropped =
      l.config().aqm.discipline == sim::qdisc::codel ? s.aqm_dropped : 0;
  out.queued_bytes = l.queued_bytes();
  out.max_queued_bytes = s.max_queued_bytes;
  out.capacity_bytes = l.config().queue_capacity_bytes;
  return out;
}

std::string check_links(const sim::network& net) {
  for (const auto& l : net.links()) {
    const std::string v = e2e::link_violation(sample_of(*l));
    if (!v.empty()) {
      return "link " + l->from()->name() + ">" + l->to()->name() + ": " + v;
    }
  }
  return {};
}

/// Interposes the timing wrappers on every edge router (a router with an
/// attached host carries the testbed's SIGMA agent). The wrappers must
/// outlive the run; `policies` and `alerts` own them.
void interpose(mcc::exp::testbed& tb, span_log& log,
               std::vector<std::unique_ptr<sim::access_policy>>& policies,
               std::vector<std::unique_ptr<sim::agent>>& alerts) {
  sim::network& net = tb.net();
  std::set<sim::node_id> edges;
  for (sim::node_id id = 0; id < net.node_count(); ++id) {
    const sim::node* n = net.get(id);
    if (n->is_host() && !n->out_links().empty()) {
      edges.insert(n->out_links().front()->to()->id());
    }
  }
  for (const sim::node_id e : edges) {
    sim::node* r = net.get(e);
    auto& sigma = tb.sigma(r->name());
    policies.push_back(std::make_unique<timed_policy>(sigma, log));
    alerts.push_back(std::make_unique<timed_alert>(sigma, log));
    r->set_access_policy(policies.back().get());
    r->set_alert_interceptor(alerts.back().get());
  }
}

/// Builds, runs in 1-simulated-second slices, checks and analyses one world.
/// Never throws: a throwing world is a failed world.
world_result run_world(const e2e::workload_spec& spec, std::size_t index,
                       std::uint64_t seed, bool traced) {
  world_result r;
  span_log log;
  span_log* lp = traced ? &log : nullptr;
  // Declared before the world so the node's policy pointers never dangle
  // while the testbed lives.
  std::vector<std::unique_ptr<sim::access_policy>> policies;
  std::vector<std::unique_ptr<sim::agent>> alerts;
  r.start_ns = now_ns();
  try {
    phase build(lp, k_build);
    e2e::world w = spec.build(index, seed);
    build.end();
    if (traced) interpose(*w.tb, log, policies, alerts);

    const sim::time_ns step = sim::seconds(1.0);
    for (sim::time_ns t = step;; t += step) {
      const sim::time_ns until = std::min(t, w.horizon);
      phase slice(lp, k_slice);
      w.tb->run_until(until);
      const double s = slice.end();
      r.slice_ms.push_back(s * 1e3);
      r.sim_s += s;
      r.outcome.failure = check_links(w.tb->net());
      if (!r.outcome.failure.empty() || until >= w.horizon) break;
    }
    r.sim_seconds = static_cast<double>(w.horizon) * 1e-9;

    phase an(lp, k_analysis);
    const e2e::outputs out = w.analyse();
    an.end();
    phase sn(lp, k_snapshot);
    const mcc::obs::metric_snapshot snap = w.tb->metrics().snapshot();
    sn.end();

    e2e::digest d;
    for (const auto& [name, v] : snap) {
      d.text(name);
      d.number(v);
    }
    for (const auto& [name, v] : out) {
      d.text(name);
      d.number(v);
    }
    r.outcome.digest = d.value();
    if (r.outcome.failure.empty()) r.outcome.failure = e2e::nan_violation(out);

    counts& c = r.c;
    c.events = metric_sum(snap, "sched.executed_events");
    c.hops = metric_sum(snap, "link.delivered");
    c.enqueued = metric_sum(snap, "link.enqueued");
    c.dropped = metric_sum(snap, "link.dropped");
    c.max_pending = metric_sum(snap, "sched.max_pending_events", true);
    c.slots_high_water = metric_sum(snap, "sched.slots_high_water", true);
    c.igmp_joins = metric_sum(snap, "igmp.joins");
    c.igmp_leaves = metric_sum(snap, "igmp.leaves");
    c.valid_keys = metric_sum(snap, "sigma.valid_keys");
    c.invalid_keys = metric_sum(snap, "sigma.invalid_keys");
    c.cm_lookups = metric_sum(snap, "cm.lookups");
    c.cm_capped = metric_sum(snap, "cm.capped_lookups");
    c.snapshot_entries = static_cast<double>(snap.size());
    const sim::network& net = w.tb->net();
    for (sim::node_id id = 0; id < net.node_count(); ++id) {
      c.mcast_forwards +=
          static_cast<double>(net.get(id)->stats().forwarded_multicast);
    }
    if (r.outcome.failure.empty() && (c.events <= 0 || c.hops <= 0)) {
      r.outcome.failure = "world simulated nothing";
    }
  } catch (const std::exception& e) {
    r.outcome.failure = std::string("threw: ") + e.what();
  } catch (...) {
    r.outcome.failure = "threw a non-std exception";
  }
  r.end_ns = now_ns();
  r.spans = std::move(log.spans());
  return r;
}

// ---------------------------------------------------------------------------
// One iteration = every world of the workload, through exp::run_sweep
// ---------------------------------------------------------------------------

struct iteration {
  bool traced = false;
  double wall_s = 0;
  std::int64_t start_ns = 0, end_ns = 0;
  std::vector<world_result> worlds;
};

iteration run_iteration(const e2e::workload_spec& spec, std::uint64_t seed,
                        bool traced) {
  iteration it;
  it.traced = traced;
  it.worlds.resize(spec.worlds);
  std::vector<double> xs(spec.worlds);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  mcc::exp::sweep_options opts;
  opts.jobs = spec.threads;
  opts.base_seed = seed;
  it.start_ns = now_ns();
  (void)mcc::exp::run_sweep(xs, opts, [&](const mcc::exp::sweep_point& pt) {
    it.worlds[pt.index] = run_world(spec, pt.index, pt.seed, traced);
    return mcc::exp::sweep_row{};
  });
  it.end_ns = now_ns();
  it.wall_s = static_cast<double>(it.end_ns - it.start_ns) * 1e-9;
  return it;
}

/// One set-up round: constructs every world of the workload once (serially)
/// and returns the summed constructor + attach seconds.
double setup_round(const e2e::workload_spec& spec, std::uint64_t seed) {
  double total = 0.0;
  for (std::size_t i = 0; i < spec.worlds; ++i) {
    const std::int64_t t0 = now_ns();
    e2e::world w = spec.build(i, mcc::exp::point_seed(seed, i));
    total += static_cast<double>(now_ns() - t0) * 1e-9;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_table(const char* title, const std::vector<metric>& ms) {
  std::printf("%s\n", title);
  for (const metric& m : ms) {
    std::printf("  %-26s %16s %-10s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  }
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

std::string ratio_note(const e2e::ratio& r, const char* num,
                       const char* base) {
  return "(" + number(r.num) + " " + num + " / " + number(r.base) + " " +
         base + ")";
}

std::vector<double> per_iteration(
    const std::vector<const iteration*>& its,
    const std::function<double(const iteration&)>& f) {
  std::vector<double> v;
  for (const iteration* it : its) v.push_back(f(*it));
  return v;
}

double sum_worlds(const iteration& it,
                  const std::function<double(const world_result&)>& f) {
  double s = 0.0;
  for (const world_result& w : it.worlds) s += f(w);
  return s;
}

counts total_counts(const iteration& it) {
  counts c;
  for (const world_result& w : it.worlds) c.add(w.c);
  return c;
}

/// Resident-set high-water mark of this process image, in MB. VmHWM is
/// per address space; getrusage's ru_maxrss also carries the pre-exec
/// image of whatever launched the benchmark (a Python runner's ~15 MB), so
/// it is only the fallback.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<metric> end_to_end(const std::vector<const iteration*>& its,
                               const std::vector<double>& setup_rounds,
                               double fail_frac, std::size_t failed,
                               std::size_t attempted) {
  std::vector<double> slices;
  for (const iteration* it : its) {
    for (const world_result& w : it->worlds) {
      slices.insert(slices.end(), w.slice_ms.begin(), w.slice_ms.end());
    }
  }
  const double top = e2e::highest_supported_percentile(slices.size());
  const std::string slice_note =
      "(n=" + std::to_string(slices.size()) +
      " slices; highest percentile with >=10 beyond: p" + number(top) + " = " +
      number(e2e::percentile(slices, top)) + " ms)";
  const auto median_of = [&](const std::function<double(const iteration&)>& f) {
    return e2e::median(per_iteration(its, f));
  };
  const std::string iters = "(median of " + std::to_string(its.size()) +
                            " iterations)";
  return {
      {"setup_s", e2e::median(setup_rounds), "s",
       "(median of " + std::to_string(setup_rounds.size()) +
           " set-up rounds)"},
      {"wall_s", median_of([](const iteration& it) { return it.wall_s; }), "s",
       iters},
      {"sim_rate", median_of([](const iteration& it) {
         return e2e::per_host_second(
                    sum_worlds(it, [](const world_result& w) {
                      return w.sim_seconds;
                    }),
                    sum_worlds(it, [](const world_result& w) {
                      return w.sim_s;
                    }))
             .value();
       }),
       "s/s", iters},
      {"pkt_hops_per_s", median_of([](const iteration& it) {
         return e2e::per_host_second(
                    total_counts(it).hops,
                    sum_worlds(it, [](const world_result& w) {
                      return w.sim_s;
                    }))
             .value();
       }),
       "1/s", iters},
      {"slice_ms_p50", e2e::percentile(slices, 50), "ms", slice_note},
      {"slice_ms_p90", e2e::percentile(slices, 90), "ms", slice_note},
      {"peak_rss_mb", peak_rss_mb(), "MB",
       "(resident high-water mark of this process)"},
      {"fail_frac", fail_frac, "fraction",
       "(" + std::to_string(failed) + " failed / " +
           std::to_string(attempted) + " worlds attempted)"},
  };
}

/// Span totals of one kind over an iteration's worlds.
struct kind_time {
  double calls = 0, dur_ns = 0, self_ns = 0;
};

std::vector<kind_time> kind_totals(const iteration& it) {
  std::vector<kind_time> k(k_kinds);
  for (const world_result& w : it.worlds) {
    const std::vector<std::int64_t> self = e2e::self_times(w.spans);
    for (std::size_t i = 0; i < w.spans.size(); ++i) {
      kind_time& kt = k[static_cast<std::size_t>(w.spans[i].kind)];
      kt.calls += 1;
      kt.dur_ns += static_cast<double>(w.spans[i].duration());
      kt.self_ns += static_cast<double>(self[i]);
    }
  }
  return k;
}

std::vector<metric> per_layer(const std::vector<const iteration*>& traced,
                              const std::vector<const iteration*>& untraced,
                              int threads) {
  const counts c = total_counts(*traced.back());
  std::vector<std::vector<kind_time>> per_it;
  for (const iteration* it : traced) per_it.push_back(kind_totals(*it));
  const auto med = [&](const std::function<double(std::size_t)>& f) {
    std::vector<double> v;
    for (std::size_t i = 0; i < per_it.size(); ++i) v.push_back(f(i));
    return e2e::median(v);
  };
  const auto kt = [&](std::size_t i, int kind) -> const kind_time& {
    return per_it[i][static_cast<std::size_t>(kind)];
  };
  const e2e::ratio per_hop = e2e::events_per_hop(c.events, c.hops);
  const e2e::ratio drop = e2e::drop_frac(c.dropped, c.enqueued);
  const e2e::ratio keys = e2e::valid_key_frac(c.valid_keys, c.invalid_keys);
  const e2e::ratio capped = e2e::capped_frac(c.cm_capped, c.cm_lookups);
  const double allow_calls = kt(0, k_allow).calls;
  const double ctrl_calls = kt(0, k_ctrl).calls;
  const double worlds = static_cast<double>(traced.back()->worlds.size());
  const auto wall = [](const iteration* it) { return it->wall_s; };
  std::vector<double> tw;
  std::vector<double> uw;
  for (const iteration* it : traced) tw.push_back(wall(it));
  for (const iteration* it : untraced) uw.push_back(wall(it));
  const e2e::ratio overhead =
      e2e::overhead_frac(e2e::median(tw), e2e::median(uw));
  return {
      {"sim.events", c.events, "count", "(scheduler events executed)"},
      {"sim.events_per_hop", per_hop.value(), "events/hop",
       ratio_note(per_hop, "events", "link deliveries")},
      {"sim.ns_per_event",
       med([&](std::size_t i) { return kt(i, k_slice).self_ns; }) / c.events,
       "ns", "(sim.slice self time / events)"},
      {"sim.max_pending", c.max_pending, "count", "(max over worlds)"},
      {"sim.slots_high_water", c.slots_high_water, "count",
       "(max over worlds)"},
      {"sim.node.mcast_forwards", c.mcast_forwards, "count", ""},
      {"sim.link.drop_frac", drop.value(), "fraction",
       ratio_note(drop, "dropped", "offered (enqueued + dropped)")},
      {"core.sigma.allow_calls", allow_calls, "count", ""},
      {"core.sigma.allow_ns",
       allow_calls > 0
           ? med([&](std::size_t i) { return kt(i, k_allow).dur_ns; }) /
                 allow_calls
           : 0.0,
       "ns", "(per call)"},
      {"core.sigma.ctrl_calls", ctrl_calls, "count", ""},
      {"core.sigma.ctrl_ns",
       ctrl_calls > 0
           ? med([&](std::size_t i) { return kt(i, k_ctrl).dur_ns; }) /
                 ctrl_calls
           : 0.0,
       "ns", "(per call, crypto shard decode included)"},
      {"core.sigma.valid_key_frac", keys.value(), "fraction",
       ratio_note(keys, "valid", "valid + invalid keys")},
      {"mcast.igmp.joins", c.igmp_joins, "count", ""},
      {"mcast.igmp.leaves", c.igmp_leaves, "count", ""},
      {"cm.lookups", c.cm_lookups, "count", ""},
      {"cm.capped_frac", capped.value(), "fraction",
       ratio_note(capped, "capped", "lookups")},
      {"exp.build_s",
       med([&](std::size_t i) { return kt(i, k_build).dur_ns; }) * 1e-9, "s",
       "(summed over worlds)"},
      {"exp.analysis_s",
       med([&](std::size_t i) { return kt(i, k_analysis).dur_ns; }) * 1e-9,
       "s", "(summed over worlds)"},
      {"exp.sweep.points_per_s", worlds / e2e::median(tw), "1/s",
       "(" + number(worlds) + " worlds / traced wall)"},
      {"exp.sweep.busy_frac", med([&](std::size_t i) {
         double busy = 0;
         for (const world_result& w : traced[i]->worlds) {
           busy += static_cast<double>(w.end_ns - w.start_ns) * 1e-9;
         }
         return e2e::busy_frac(busy, traced[i]->wall_s, threads).value();
       }),
       "fraction", "(world busy time / (wall x " + std::to_string(threads) +
                       " threads))"},
      {"obs.snapshot_s",
       med([&](std::size_t i) { return kt(i, k_snapshot).dur_ns; }) * 1e-9,
       "s", "(summed over worlds)"},
      {"obs.snapshot_entries", c.snapshot_entries, "count",
       "(summed over worlds)"},
      {"trace.overhead_frac", overhead.value(), "fraction",
       "(traced wall " + number(e2e::median(tw)) + " s / untraced wall " +
           number(e2e::median(uw)) + " s - 1)"},
  };
}

/// Share of the iteration's wall time covered by the worlds' top-level
/// spans (their union across sweep threads).
double top_level_coverage(const iteration& it) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const world_result& w : it.worlds) {
    for (const e2e::span& s : w.spans) {
      if (s.parent < 0) iv.emplace_back(s.start_ns, s.end_ns);
    }
  }
  return static_cast<double>(e2e::covered_ns(iv, it.start_ns, it.end_ns)) /
         static_cast<double>(it.end_ns - it.start_ns);
}

void print_self_times(const iteration& it, int threads) {
  const std::vector<kind_time> k = kind_totals(it);
  const double capacity_ns = it.wall_s * 1e9 * threads;
  std::printf("per-layer self time (last traced iteration, wall %s s x %d "
              "threads)\n",
              number(it.wall_s).c_str(), threads);
  for (std::size_t i = 0; i < k.size(); ++i) {
    std::printf("  %-18s %12.6f s  %6.2f%%  %10.0f spans\n", kind_name[i],
                k[i].self_ns * 1e-9, 100.0 * k[i].self_ns / capacity_ns,
                k[i].calls);
  }
}

void write_spans(const std::string& path, const iteration& it) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "e2ebench: cannot write spans to %s\n", path.c_str());
    return;
  }
  os << "world,id,parent,name,start_ns,end_ns\n";
  for (std::size_t w = 0; w < it.worlds.size(); ++w) {
    const auto& spans = it.worlds[w].spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      os << w << ',' << i << ',' << spans[i].parent << ','
         << kind_name[spans[i].kind] << ','
         << spans[i].start_ns - it.start_ns << ','
         << spans[i].end_ns - it.start_ns << '\n';
    }
  }
}

void print_spread(const char* what, const std::vector<double>& v) {
  std::printf("%s: min %s q1 %s median %s q3 %s max %s\n", what,
              number(e2e::percentile(v, 0)).c_str(),
              number(e2e::percentile(v, 25)).c_str(),
              number(e2e::median(v)).c_str(),
              number(e2e::percentile(v, 75)).c_str(),
              number(e2e::percentile(v, 100)).c_str());
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:");
  for (const auto& w : e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0) return usage();
    args[k.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.contains("workload")) return usage();
  const e2e::workload_spec* spec = e2e::find_workload(args["workload"]);
  if (spec == nullptr) return usage();
  const std::uint64_t seed =
      args.contains("seed") ? std::strtoull(args["seed"].c_str(), nullptr, 10)
                            : spec->default_seed;
  const double seconds =
      args.contains("seconds") ? std::atof(args["seconds"].c_str()) : 30.0;
  const bool traced = args.contains("trace") && args["trace"] == "1";
  if (!(seconds > 0)) return usage();

  const std::int64_t begin = now_ns();
  const auto elapsed = [begin] {
    return static_cast<double>(now_ns() - begin) * 1e-9;
  };

  // Set-up rounds (untraced runs only: setup_s is an end-to-end metric) come
  // in bursts between iterations, topping the set-up share up to 5% of the
  // elapsed time, so they sample the host over the same window as the
  // iterations instead of only its first seconds.
  std::vector<double> setup_rounds;
  double setup_spent = 0.0;
  const auto setup_burst = [&] {
    if (traced) return;
    for (int n = 0; n < 3 || setup_spent < 0.05 * elapsed(); ++n) {
      const double t0 = elapsed();
      setup_rounds.push_back(setup_round(*spec, seed));
      setup_spent += elapsed() - t0;
    }
  };

  // Timed iterations until the budget would be overrun; a traced run
  // alternates untraced and traced iterations so both see the same machine.
  std::vector<iteration> its;
  std::size_t rounds = 0;
  do {
    setup_burst();
    its.push_back(run_iteration(*spec, seed, false));
    if (traced) its.push_back(run_iteration(*spec, seed, true));
    ++rounds;
  } while (elapsed() * (1.0 + 1.0 / static_cast<double>(rounds)) <= seconds);
  setup_burst();

  std::vector<const iteration*> untraced_its;
  std::vector<const iteration*> traced_its;
  std::vector<std::vector<e2e::world_outcome>> outcomes;
  for (const iteration& it : its) {
    (it.traced ? traced_its : untraced_its).push_back(&it);
    std::vector<e2e::world_outcome> o;
    for (const world_result& w : it.worlds) o.push_back(w.outcome);
    outcomes.push_back(std::move(o));
  }
  // Reference digests: the first (untraced) iteration. Every later
  // iteration, traced ones included, must reproduce them.
  const auto [attempted, failed] = e2e::count_failures(outcomes);
  bool correct = failed == 0;

  std::printf("workload %s seed %llu: %zu world(s) on %d thread(s), %zu "
              "untraced + %zu traced iteration(s) in %.3f s\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              spec->worlds, spec->threads, untraced_its.size(),
              traced_its.size(), elapsed());
  for (const iteration& it : its) {
    for (std::size_t i = 0; i < it.worlds.size(); ++i) {
      const world_result& w = it.worlds[i];
      if (!w.outcome.failure.empty()) {
        std::printf("FAIL world %zu%s: %s\n", i, it.traced ? " (traced)" : "",
                    w.outcome.failure.c_str());
      } else if (w.outcome.digest != outcomes.front()[i].digest) {
        std::printf("FAIL world %zu%s: digest %s != reference %s\n", i,
                    it.traced ? " (traced)" : "",
                    hex(w.outcome.digest).c_str(),
                    hex(outcomes.front()[i].digest).c_str());
      }
    }
  }
  e2e::digest wd;
  for (const e2e::world_outcome& o : outcomes.front()) wd.u64(o.digest);
  std::printf("digest %s seed=%llu %s\n", spec->name.c_str(),
              static_cast<unsigned long long>(seed), hex(wd.value()).c_str());

  const double fail_frac = e2e::fail_frac(failed, attempted).value();
  if (!traced) {
    std::vector<metric> e2e_metrics =
        end_to_end(untraced_its, setup_rounds, fail_frac, failed, attempted);
    print_table("end-to-end metrics (untraced)", e2e_metrics);
    std::vector<double> walls;
    for (const iteration* it : untraced_its) walls.push_back(it->wall_s);
    print_spread("iteration wall_s", walls);
    print_spread("set-up round s", setup_rounds);
    e2e_metrics.pop_back();  // fail_frac travels as "failed"/"attempted"
    print_json(correct, attempted, failed, e2e_metrics);
    return 0;
  }

  const std::vector<metric> layers =
      per_layer(traced_its, untraced_its, spec->threads);
  print_table("per-layer metrics (traced run)", layers);
  std::printf("fail_frac %s (%zu failed / %zu worlds attempted)\n",
              number(fail_frac).c_str(), failed, attempted);
  print_self_times(*traced_its.back(), spec->threads);
  double coverage = 1.0;
  for (const iteration* it : traced_its) {
    coverage = std::min(coverage, top_level_coverage(*it));
  }
  const bool covered = coverage >= 0.9;
  std::printf("%stop-level spans cover >= %.4f of each traced iteration's "
              "wall time (%zu iterations; required 0.9)\n",
              covered ? "" : "FAIL ", coverage, traced_its.size());
  correct = correct && covered;
  if (args.contains("spans")) write_spans(args["spans"], *traced_its.back());
  print_json(correct, attempted, failed, layers);
  return 0;
}
