// entropy_serverd — the network-facing entropy daemon: N producers (each
// an independent die-seeded instance of the paper's TRNG) stream
// health-gated blocks into per-shard rings, one SP 800-90A Hash_DRBG per
// shard conditions them, and client threads draw conditioned bytes over
// the framed socket protocol. A thin main() over trng::server — every
// moving part lives in src/server/ and is unit-tested there.
//
//   build/examples/entropy_serverd
//
// Knobs (environment):
//   TRNG_EXAMPLE_BITS        total conditioned bits       (default 400000)
//   TRNG_SERVERD_PRODUCERS   pool producers / DRBG shards (default 2)
//   TRNG_SERVERD_CLIENTS     client threads               (default 2)
//   TRNG_SERVERD_SOURCE      registry source id           (default carry-k1)
//   TRNG_SERVERD_PR          1 = prediction resistance    (default 0)
//   TRNG_SERVERD_UDS         also listen on this AF_UNIX path and stay up
//                            until stdin closes (scrape it with
//                            online_health_monitor --scrape <path>)
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/source_registry.hpp"
#include "server/client.hpp"
#include "server/serverd.hpp"

int main() {
  using namespace trng;
  const std::size_t total_bits = common::env_size("TRNG_EXAMPLE_BITS", 400000);
  const std::size_t producers =
      common::env_size("TRNG_SERVERD_PRODUCERS", 2);
  const std::size_t clients = common::env_size("TRNG_SERVERD_CLIENTS", 2);
  const bool pr = common::env_size("TRNG_SERVERD_PR", 0) != 0;
  const char* source_env = std::getenv("TRNG_SERVERD_SOURCE");
  const std::string source_id = source_env != nullptr ? source_env
                                                      : "carry-k1";
  const char* uds = std::getenv("TRNG_SERVERD_UDS");

  server::ServerConfig cfg;
  cfg.pool.producers = producers;
  cfg.pool.producer.block_bits = common::Bits{4096};
  cfg.pool.producer.h_per_bit = 0.95;  // gate at the paper's entropy bar
  cfg.pool.ring_capacity_words = common::Words{1 << 12};

  // Every producer elaborates its own simulated die (distinct process
  // variation) and heads its own deterministic reseed-epoch seed stream.
  server::ServerDaemon daemon(
      [&source_id](std::size_t index, std::uint64_t seed) {
        return core::make_die_seeded_source(source_id, 1000 + index, seed);
      },
      cfg);

  std::printf("entropy_serverd: %zu shard(s) of '%s', %zu client(s), "
              "%zu conditioned bits%s\n",
              producers, source_id.c_str(), clients, total_bits,
              pr ? " (PR)" : "");
  daemon.start();
  if (uds != nullptr) {
    daemon.listen_unix(uds);
    std::printf("listening on %s\n", uds);
  }

  // Each client owns one connection and pulls its share of the budget in
  // 4 KiB framed requests, exactly like an external consumer would.
  const std::size_t total_bytes = (total_bits + 7) / 8;
  const std::size_t per_client = total_bytes / clients + 1;
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> denied{0};
  std::vector<std::thread> drawers;
  drawers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    const int fd = daemon.connect_client();
    if (fd < 0) {
      std::fprintf(stderr, "connect_client failed\n");
      return 1;
    }
    drawers.emplace_back([fd, per_client, pr, &served, &denied] {
      constexpr std::uint32_t kChunk = 4096;
      std::size_t drawn = 0;
      while (drawn < per_client) {
        const auto want = static_cast<std::uint32_t>(
            per_client - drawn < kChunk ? per_client - drawn : kChunk);
        const auto reply = server::client::draw(fd, want, pr);
        if (!reply.ok) break;  // daemon went away
        if (reply.status != server::Status::kOk) {
          denied.fetch_add(1);
          continue;
        }
        drawn += reply.bytes.size();
        served.fetch_add(reply.bytes.size());
      }
      ::close(fd);
    });
  }
  for (auto& t : drawers) t.join();

  // Daemon mode: hold the listener open for external scrapers until stdin
  // closes (e.g. `TRNG_SERVERD_UDS=/tmp/trng.sock entropy_serverd < pipe`).
  if (uds != nullptr) {
    std::printf("clients done; serving %s until stdin closes\n", uds);
    char sink[64];
    while (::read(STDIN_FILENO, sink, sizeof(sink)) > 0) {
    }
  }
  daemon.stop();

  auto& pool = daemon.pool();
  for (std::size_t i = 0; i < pool.producers(); ++i) {
    const auto& pc = pool.metrics().producer(i);
    const auto& sc = daemon.metrics().shard(i);
    std::printf(
        "  shard %zu [%s]: %llu words admitted, %llu eaten by reseeds, "
        "%llu reseeds, %llu generates, %llu bytes out, %llu backpressure\n",
        i, service::admit_state_name(pool.producer_state(i)),
        static_cast<unsigned long long>(pc.words_produced.load()),
        static_cast<unsigned long long>(sc.entropy_words_consumed.load()),
        static_cast<unsigned long long>(sc.reseeds.load()),
        static_cast<unsigned long long>(sc.generates.load()),
        static_cast<unsigned long long>(sc.bytes_generated.load()),
        static_cast<unsigned long long>(sc.backpressure.load()));
  }
  std::printf("served %llu conditioned bytes to %zu client(s), %llu denials\n",
              static_cast<unsigned long long>(served.load()), clients,
              static_cast<unsigned long long>(denied.load()));
  std::printf("metrics snapshot:\n%s\n", daemon.metrics_json().c_str());
  return 0;
}
