// serve_steady and serve_reseed: a ServerDaemon configured like
// examples/entropy_serverd.cpp (two carry-k1 shards, h = 0.95, 4096-word
// rings), driven by a closed loop of clients in this process, each sending
// 4096-byte client::draw requests over its own connect_client() socket.
//
// serve_steady keeps the default DRBG limits with two clients and is timed
// once both rings are full: seeds are cheap ring pops and the request path
// is Hash_DRBG plus session framing.
// serve_reseed sets reseed_interval = 16 with four clients (two per shard):
// raw-entropy demand then exceeds what two simulated dies supply, so seed
// fills wait on the pool under the shard mutex and the simulator sets
// throughput and tail latency.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/source_registry.hpp"
#include "die.hpp"
#include "server/client.hpp"
#include "server/serverd.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace trng;

namespace {

constexpr std::uint32_t kRequestBytes = 4096;
constexpr std::size_t kShards = 2;
/// serve_steady's ring-fill warm-up fails the run after this long.
constexpr std::uint64_t kWarmupLimitNs = 60'000'000'000;

server::ServerConfig serve_config(std::uint64_t seed, bool reseed_heavy) {
  server::ServerConfig cfg;
  cfg.pool.producers = kShards;
  cfg.pool.producer = production_producer_config();
  cfg.pool.ring_capacity_words = common::Words{kRingWords};
  cfg.pool.stream_seed_base = die_seeds(seed).stream;
  if (reseed_heavy) cfg.conditioner.drbg.reseed_interval = 16;
  return cfg;
}

/// A started daemon plus one connected client socket per client; closes
/// the sockets before the daemon stops.
struct Rig {
  std::unique_ptr<server::ServerDaemon> daemon;
  std::vector<int> fds;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    for (int fd : fds) ::close(fd);
    daemon.reset();
  }
};

struct Counters {
  std::uint64_t instantiates = 0;
  std::uint64_t reseeds = 0;
  std::uint64_t consumed_words = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t draw_wait_ns = 0;
  std::uint64_t stall_ns = 0;
  std::uint64_t blocks_admitted = 0;
  std::uint64_t blocks_rejected = 0;
  std::uint64_t words_produced = 0;

  Counters& operator+=(const Counters& o) {
    instantiates += o.instantiates;
    reseeds += o.reseeds;
    consumed_words += o.consumed_words;
    backpressure += o.backpressure;
    draw_wait_ns += o.draw_wait_ns;
    stall_ns += o.stall_ns;
    blocks_admitted += o.blocks_admitted;
    blocks_rejected += o.blocks_rejected;
    words_produced += o.words_produced;
    return *this;
  }
  Counters operator-(const Counters& o) const {
    Counters d;
    d.instantiates = instantiates - o.instantiates;
    d.reseeds = reseeds - o.reseeds;
    d.consumed_words = consumed_words - o.consumed_words;
    d.backpressure = backpressure - o.backpressure;
    d.draw_wait_ns = draw_wait_ns - o.draw_wait_ns;
    d.stall_ns = stall_ns - o.stall_ns;
    d.blocks_admitted = blocks_admitted - o.blocks_admitted;
    d.blocks_rejected = blocks_rejected - o.blocks_rejected;
    d.words_produced = words_produced - o.words_produced;
    return d;
  }
};

Counters read_counters(server::ServerDaemon& d) {
  Counters c;
  for (std::size_t i = 0; i < d.metrics().shards(); ++i) {
    const auto& s = d.metrics().shard(i);
    c.instantiates += s.instantiates.load();
    c.reseeds += s.reseeds.load();
    c.consumed_words += s.entropy_words_consumed.load();
    c.backpressure += s.backpressure.load();
  }
  c.draw_wait_ns = d.pool().metrics().draw_wait_ns.load();
  for (std::size_t i = 0; i < d.pool().producers(); ++i) {
    const auto& p = d.pool().metrics().producer(i);
    c.stall_ns += p.stall_ns.load();
    c.blocks_admitted += p.blocks_admitted.load();
    c.blocks_rejected += p.blocks_rejected.load();
    c.words_produced += p.words_produced.load();
  }
  return c;
}

/// Every shard consumed exactly seed_words per instantiate or reseed.
bool seed_accounting_holds(server::ServerDaemon& d) {
  const std::uint64_t seed_words = d.conditioner().config().seed_words.count();
  for (std::size_t i = 0; i < d.metrics().shards(); ++i) {
    const auto& s = d.metrics().shard(i);
    if (s.entropy_words_consumed.load() !=
        (s.instantiates.load() + s.reseeds.load()) * seed_words) {
      return false;
    }
  }
  return true;
}

/// Median ring occupancy (percent, bucket upper bound) over all producers.
double ring_occupancy_p50(server::ServerDaemon& d) {
  const auto& m = d.pool().metrics();
  const auto& bounds = m.producer(0).ring_occupancy_pct.bounds();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < m.producers(); ++i) {
    const auto& h = m.producer(i).ring_occupancy_pct;
    for (std::size_t b = 0; b < h.buckets(); ++b) {
      counts[b] += h.count(b);
      total += h.count(b);
    }
  }
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (2 * seen >= total && total > 0) {
      return b < bounds.size() ? static_cast<double>(bounds[b]) : 100.0;
    }
  }
  return 0.0;
}

struct ClientStats {
  LatencyLog log;
  std::uint64_t bytes = 0;
  bool distinct = true;  ///< no reply repeated its predecessor's prefix
};

/// Closed loop: the next request goes out when the previous reply is in.
void client_loop(int fd, std::uint32_t nbytes, std::uint64_t deadline,
                 ClientStats& st, Tracer* tracer, std::uint64_t request_base) {
  const std::uint32_t span = tracer != nullptr ? tracer->id("client.request") : 0;
  std::uint8_t prev[32] = {};
  std::uint64_t n = 0;
  while (now_ns() < deadline) {
    const std::uint64_t ts = now_ns();
    server::client::DrawReply reply;
    {
      Span s(tracer, span, request_base + n);
      reply = server::client::draw(fd, nbytes);
    }
    const std::uint64_t te = now_ns();
    ++n;
    if (!reply.ok || reply.status != server::Status::kOk ||
        reply.bytes.size() != nbytes) {
      st.log.failed();
      continue;
    }
    st.log.ok(static_cast<double>(te - ts) * 1e-3);
    st.bytes += nbytes;
    const std::size_t k = std::min<std::size_t>(sizeof(prev), nbytes);
    if (nbytes >= sizeof(prev) && n > 1 &&
        std::memcmp(prev, reply.bytes.data(), k) == 0) {
      st.distinct = false;
    }
    std::memcpy(prev, reply.bytes.data(), k);
  }
}

/// Direct Conditioner::draw calls on `shard`, bypassing the session.
void conditioner_loop(server::Conditioner& c, std::size_t shard,
                      std::uint64_t deadline, ClientStats& st, Tracer& tracer,
                      std::uint64_t request_base) {
  const std::uint32_t span = tracer.id("server.conditioner_draw");
  std::vector<std::uint8_t> out(kRequestBytes);
  std::uint64_t n = 0;
  while (now_ns() < deadline) {
    const std::uint64_t ts = now_ns();
    server::Conditioner::DrawStatus status;
    {
      Span s(&tracer, span, request_base + n++);
      status = c.draw(shard, out.data(), out.size(), false);
    }
    if (status != server::Conditioner::DrawStatus::kOk) {
      st.log.failed();
      continue;
    }
    st.log.ok(static_cast<double>(now_ns() - ts) * 1e-3);
    st.bytes += out.size();
  }
}

/// Requests, bytes and wall time of one or more client phases.
struct Phase {
  LatencyLog log;
  std::uint64_t bytes = 0;
  double elapsed_s = 0.0;
  bool distinct = true;

  Phase& operator+=(const Phase& o) {
    log.append(o.log);
    bytes += o.bytes;
    elapsed_s += o.elapsed_s;
    distinct = distinct && o.distinct;
    return *this;
  }
};

/// Request ids: client in bits 40 and up, round in bits 24 to 39.
std::uint64_t request_base(std::size_t client, std::uint64_t round) {
  return (static_cast<std::uint64_t>(client + 1) << 40) + (round << 24);
}

/// Runs one closed-loop client thread per connection for `seconds`; spans
/// go to tracers[client] when `tracers` is given.
Phase socket_phase(Rig& rig, std::uint32_t nbytes, double seconds,
                   std::vector<std::unique_ptr<Tracer>>* tracers,
                   std::uint64_t round = 0) {
  std::vector<ClientStats> stats(rig.fds.size());
  std::vector<std::thread> threads;
  const std::uint64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < rig.fds.size(); ++c) {
    Tracer* tr = tracers != nullptr ? (*tracers)[c].get() : nullptr;
    threads.emplace_back(client_loop, rig.fds[c], nbytes, deadline,
                         std::ref(stats[c]), tr, request_base(c, round));
  }
  for (auto& t : threads) t.join();
  Phase p;
  p.elapsed_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (const auto& s : stats) {
    p.log.append(s.log);
    p.bytes += s.bytes;
    p.distinct = p.distinct && s.distinct;
  }
  return p;
}

}  // namespace

Result run_serve(const Options& opt, bool reseed_heavy) {
  Result res;
  const std::size_t clients = reseed_heavy ? 4 : 2;
  const server::ServerConfig cfg = serve_config(opt.seed, reseed_heavy);
  const DieSeeds seeds = die_seeds(opt.seed);
  const auto factory = [die = seeds.die](std::size_t index, std::uint64_t s) {
    return core::make_die_seeded_source(kDieSource, die + index, s);
  };

  // Set-up: construct, start, connect every client, and wait for the first
  // OK reply on every shard, so each shard's cold instantiate lands here
  // and not in steady-state latency.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  std::vector<std::vector<std::uint8_t>> first_reply(kShards);
  bool setup_ok = true;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    for (auto& f : first_reply) f.clear();
    const std::uint64_t t0 = now_ns();
    rig = std::make_unique<Rig>();
    rig->daemon = std::make_unique<server::ServerDaemon>(factory, cfg);
    rig->daemon->start();
    for (std::size_t c = 0; c < clients; ++c) {
      const int fd = rig->daemon->connect_client();
      if (fd < 0) throw std::runtime_error("connect_client failed");
      rig->fds.push_back(fd);
    }
    for (int fd : rig->fds) {
      const auto reply = server::client::draw(fd, kRequestBytes);
      if (!reply.ok || reply.status != server::Status::kOk ||
          reply.bytes.size() != kRequestBytes || reply.shard >= kShards) {
        setup_ok = false;
        continue;
      }
      if (first_reply[reply.shard].empty()) first_reply[reply.shard] = reply.bytes;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    for (const auto& f : first_reply) setup_ok = setup_ok && !f.empty();
  }
  res.check("serve.setup_every_shard_replied", setup_ok);
  server::ServerDaemon& daemon = *rig->daemon;
  const Counters at_setup = read_counters(daemon);

  // serve_steady measures the daemon's steady state: every ring full, the
  // producers parked on backpressure and the simulator off the request
  // path. Timing while the rings still fill would mix two regimes, split
  // at a point that moves with the simulator's speed. Filling takes about
  // 64 block times, so it is reported as its own figure and kept out of
  // setup_s, which ends at the first reply as a client sees it.
  if (!reseed_heavy) {
    const std::size_t block_words =
        common::bits_to_words(cfg.pool.producer.block_bits).count();
    const std::uint64_t w0 = now_ns();
    bool full = false;
    while (!full && now_ns() - w0 < kWarmupLimitNs) {
      full = true;
      for (std::size_t i = 0; i < daemon.pool().producers(); ++i) {
        const service::WordRing& ring = daemon.pool().ring(i);
        full = full &&
               ring.size().count() + block_words > ring.capacity().count();
      }
      if (!full) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    res.check("serve.warmup_rings_full", full);
    res.detail["serve.warmup_s"] = {static_cast<double>(now_ns() - w0) * 1e-9,
                                    "s"};
  }

  // Timed, tracing off. A traced run interleaves short rounds of untraced
  // requests, traced requests, direct Conditioner::draw calls and 1-byte
  // requests, so the phases it compares see the same host conditions.
  Phase steady;  // untraced 4 KiB requests
  Counters used;  // counter deltas over the untraced requests
  auto untraced = [&](double seconds) {
    const Counters before = read_counters(daemon);
    steady += socket_phase(*rig, kRequestBytes, seconds, nullptr);
    used += read_counters(daemon) - before;
  };
  Phase traced;
  Phase small;
  LatencyLog draw_log;
  std::vector<std::unique_ptr<Tracer>> tracers;
  if (!opt.trace) {
    untraced(opt.seconds);
  } else {
    const std::uint64_t epoch = now_ns();
    for (std::size_t c = 0; c < 2 * clients; ++c) {
      tracers.push_back(std::make_unique<Tracer>(epoch));
    }
    constexpr double kRoundS = 0.5;
    const std::uint64_t deadline =
        epoch + static_cast<std::uint64_t>(opt.seconds * 1e9);
    std::uint64_t round = 0;
    do {
      untraced(kRoundS / 3);
      traced += socket_phase(*rig, kRequestBytes, kRoundS / 3, &tracers, round);
      std::vector<ClientStats> direct(clients);
      std::vector<std::thread> threads;
      const auto until = now_ns() + static_cast<std::uint64_t>(kRoundS / 6 * 1e9);
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back(conditioner_loop, std::ref(daemon.conditioner()),
                             c % kShards, until, std::ref(direct[c]),
                             std::ref(*tracers[clients + c]),
                             request_base(c, round));
      }
      for (auto& t : threads) t.join();
      for (const auto& d : direct) draw_log.append(d.log);
      small += socket_phase(*rig, 1, kRoundS / 6, nullptr);
      ++round;
    } while (now_ns() < deadline);
  }
  const double rss = peak_rss_mb();

  report_setup(setup_s, res);
  report_ops(steady.log, res);
  // Served bytes per second. serve_reseed is supply-bound: its seed waits
  // are the point, so the figure is bytes over wall time. serve_steady
  // runs with every producer parked, where a host stall of a few seconds
  // (an idle vCPU slow to wake) swings the wall-clock mean threefold; it
  // reports its closed loop's rate at the median request time instead,
  // like die and battery, and keeps the wall-clock figure as detail.
  const double wall_bps = static_cast<double>(steady.bytes) / steady.elapsed_s;
  const double served_bps =
      reseed_heavy ? wall_bps
                   : static_cast<double>(clients * kRequestBytes) /
                         (res.metrics["op_p50_us"].value * 1e-6);
  res.metrics["peak_rss_mb"] = {rss, "MB"};
  res.metrics["throughput_bits_per_s"] = {8.0 * served_bps, "bit/s"};
  // The same figures under the request-level names.
  res.detail["served_bytes_per_s"] = {served_bps, "B/s"};
  res.detail["serve.served_bytes_per_s_wall"] = {wall_bps, "B/s"};
  res.detail["req_p50_us"] = res.metrics["op_p50_us"];
  res.detail["req_samples"] = res.detail["op_samples"];
  res.detail["req_failed_frac"] = res.detail["op_failed_frac"];
  if (res.detail.count("op_p99_us") != 0) {
    res.detail["req_p99_us"] = res.detail["op_p99_us"];
  }

  // Seed path and service counters over the untraced requests.
  const double requests = static_cast<double>(steady.log.attempted());
  const auto fills = static_cast<double>(used.instantiates + used.reseeds);
  res.detail["server.seeds_per_kreq"] = {1000.0 * fills / requests, "count"};
  res.detail["server.seed_wait_us_mean"] = {
      fills > 0 ? static_cast<double>(used.draw_wait_ns) * 1e-3 / fills : 0.0,
      "us"};
  res.detail["server.raw_bytes_per_served_mb"] = {
      static_cast<double>(used.consumed_words) * 8.0 /
          (static_cast<double>(steady.bytes) * 1e-6),
      "B/MB"};
  res.detail["server.backpressure_frac"] = {
      static_cast<double>(used.backpressure) / requests, "fraction"};
  const double producer_s = static_cast<double>(kShards) * steady.elapsed_s;
  res.detail["service.producer_stall_frac"] = {
      static_cast<double>(used.stall_ns) * 1e-9 / producer_s, "fraction"};
  const auto admitted = static_cast<double>(used.blocks_admitted);
  const auto rejected = static_cast<double>(used.blocks_rejected);
  res.detail["service.blocks_rejected"] = {rejected, "count"};
  res.detail["service.admitted_bits_per_s_per_producer"] = {
      static_cast<double>(used.words_produced) * 64.0 / producer_s, "bit/s"};
  res.detail["service.block_admit_frac"] = {
      admitted + rejected > 0 ? admitted / (admitted + rejected) : 1.0,
      "fraction"};
  res.detail["service.ring_occupancy_pct_p50"] = {ring_occupancy_p50(daemon),
                                                  "%"};

  res.check("serve.replies_ok_and_full_length", steady.log.failures() == 0);
  res.check("serve.replies_distinct", steady.distinct);

  if (opt.trace) {
    res.check("serve.traced_replies_ok", traced.log.failures() == 0);
    res.check("serve.direct_draws_ok", draw_log.failures() == 0);
    res.check("serve.small_replies_ok", small.log.failures() == 0);
    const double request_p50 = steady.log.median();
    const double draw_p50 = draw_log.median();
    const double small_p50 = small.log.median();
    res.detail["server.conditioner_draw_us_p50"] = {draw_p50, "us"};
    if (const auto p99 = draw_log.percentile(0.99)) {
      res.detail["server.conditioner_draw_us_p99"] = {*p99, "us"};
    }
    res.detail["server.session_self_us_p50"] = {request_p50 - draw_p50, "us"};
    res.detail["server.small_request_us_p50"] = {small_p50, "us"};
    // Reconciliation, in medians as the workload reports its latency: an
    // untraced 4 KiB request against a direct conditioner draw plus a
    // 1-byte round trip. Tolerance 0.25 on serve_steady; on serve_reseed
    // seed waits dominate both sides and the figure is reported only.
    const double unexplained = 1.0 - (draw_p50 + small_p50) / request_p50;
    res.layers["trace.unexplained_frac"] = {unexplained, "fraction"};
    res.layers["trace.overhead_frac"] = {
        traced.log.median() / request_p50 - 1.0, "fraction"};
    res.detail["serve.unexplained_frac"] = {unexplained, "fraction"};
    res.detail["serve.unexplained_tolerance"] = {0.25, "fraction"};
    if (!reseed_heavy) {
      res.detail["serve.reconciled"] = {
          unexplained >= -0.25 && unexplained <= 0.25 ? 1.0 : 0.0, "bool"};
    }
    std::vector<const Tracer*> all;
    for (const auto& t : tracers) all.push_back(t.get());
    report_spans(merge_totals(all), "span.", res);
    if (!opt.trace_out.empty()) {
      res.check("trace.written",
                write_trace(opt.trace_out, reseed_heavy ? "serve_reseed"
                                                        : "serve_steady",
                            all));
    }
  }

  // No draw is in flight now: every shard's consumed entropy must be
  // exactly seed_words per instantiate or reseed.
  res.check("serve.seed_accounting", seed_accounting_holds(daemon));
  const Counters end = read_counters(daemon);
  res.detail["server.instantiates"] = {static_cast<double>(end.instantiates),
                                       "count"};
  res.detail["server.reseeds"] = {static_cast<double>(end.reseeds), "count"};

  // Deterministic fingerprint: each shard's first reply is a function of
  // its producer's first admitted block alone.
  std::vector<std::uint8_t> replies;
  for (const auto& f : first_reply) replies.insert(replies.end(), f.begin(), f.end());
  res.fingerprint["first_replies_sha256"] = sha256_hex(replies.data(), replies.size());
  res.fingerprint["setup_instantiates"] = std::to_string(at_setup.instantiates);
  res.fingerprint["setup_reseeds"] = std::to_string(at_setup.reseeds);
  return res;
}

}  // namespace perfbench
