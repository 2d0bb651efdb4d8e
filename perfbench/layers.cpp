#include "layers.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/routing_table.h"
#include "gossip/messages.h"
#include "gossip/view.h"
#include "nat/nat_device.h"
#include "sim/event_queue.h"
#include "sim/spin_barrier.h"
#include "util/rng.h"
#include "wire/codec.h"

namespace perfbench {

namespace {

using namespace nylon;

constexpr int kBatches = 7;

/// Median over kBatches of (wall ns of one `batch(ops)` call) / ops;
/// `prepare(ops)` runs untimed before each batch.
template <typename F, typename P>
double median_ns_per_op(std::size_t ops, F&& batch, P&& prepare) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    prepare(ops);
    const auto start = std::chrono::steady_clock::now();
    batch(ops);
    const auto end = std::chrono::steady_clock::now();
    per_op.push_back(
        std::chrono::duration<double, std::nano>(end - start).count() /
        static_cast<double>(ops));
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

template <typename F>
double median_ns_per_op(std::size_t ops, F&& batch) {
  return median_ns_per_op(ops, std::forward<F>(batch), [](std::size_t) {});
}

gossip::view_entry entry(net::node_id id, std::uint32_t age) {
  return gossip::view_entry{
      gossip::node_descriptor{id, {net::ip_address{0x0A000000u + id}, 4000},
                              nat::nat_type::open},
      age, 0};
}

/// Steady-state queue of `depth` pending events: each op pops the
/// earliest event and schedules one more, like a running simulation.
double event_queue_push_pop(std::uint64_t depth, util::rng& rng) {
  sim::event_queue q;
  for (std::uint64_t i = 0; i < depth; ++i) {
    q.push(static_cast<sim::sim_time>(rng.uniform(0, 5000)), [] {});
  }
  return median_ns_per_op(200000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const sim::sim_time t = q.pop_and_run();
      q.push(t + 1 + static_cast<sim::sim_time>(rng.uniform(0, 5000)),
             [] {});
    }
  });
}

/// Merge of a full exchange buffer into a full view (the healer merge the
/// paper's Nylon runs use), on pre-copied views.
double view_merge(std::size_t view_size, util::rng& rng) {
  std::vector<gossip::view_entry> initial;
  std::vector<gossip::view_entry> received;
  for (std::size_t i = 0; i < view_size; ++i) {
    initial.push_back(entry(static_cast<net::node_id>(1 + i),
                            static_cast<std::uint32_t>(i)));
    received.push_back(
        entry(static_cast<net::node_id>(1 + view_size / 2 + i), 0));
  }
  gossip::view base(view_size);
  base.assign(initial, 0);
  constexpr std::size_t kOps = 20000;
  std::vector<gossip::view> copies;
  return median_ns_per_op(
      kOps,
      [&](std::size_t) {
        for (gossip::view& v : copies) {
          v.merge(received, initial, gossip::merge_policy::healer, 0, rng);
        }
      },
      [&](std::size_t ops) { copies.assign(ops, base); });
}

/// next_rvp over a table holding `entries` destinations, one in eight a
/// direct contact and the rest chained through them.
double routing_lookup(std::uint64_t entries) {
  const auto n = static_cast<net::node_id>(std::max<std::uint64_t>(entries, 8));
  const net::node_id direct = std::max<net::node_id>(n / 8, 1);
  core::routing_table rt(sim::seconds(90), n);
  for (net::node_id i = 1; i <= direct; ++i) {
    rt.touch_direct(i, {net::ip_address{i}, 4000}, 0);
  }
  for (net::node_id i = direct + 1; i <= n; ++i) {
    rt.learn_route(i, 1 + i % direct, sim::seconds(60), 0);
  }
  net::node_id dest = 1;
  std::size_t found = 0;
  const double ns = median_ns_per_op(500000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      found += rt.next_rvp(dest, 10).has_value() ? 1 : 0;
      dest = dest % n + 1;
    }
  });
  if (found == 0) throw std::runtime_error("routing table timing found no route");
  return ns;
}

/// Outbound translate plus the matching inbound filter on a
/// port-restricted-cone device holding `rules` live rules.
double nat_translate_filter(std::uint64_t rules) {
  const auto n = static_cast<std::uint32_t>(std::max<std::uint64_t>(rules, 1));
  nat::nat_device dev(nat::nat_type::port_restricted_cone,
                      net::ip_address{0x0A000001}, sim::seconds(90), n);
  const net::endpoint priv{net::ip_address{0xAC100001}, 5000};
  std::vector<net::endpoint> remotes;
  for (std::uint32_t i = 0; i < n; ++i) {
    remotes.push_back({net::ip_address{0x0B000000u + i}, 4000 + i % 7});
    (void)dev.translate_outbound(priv, remotes.back(), 0);
  }
  std::size_t admitted = 0;
  std::uint32_t r = 0;
  const double ns = median_ns_per_op(500000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const net::endpoint pub = dev.translate_outbound(priv, remotes[r], 1);
      admitted += dev.filter_inbound(pub, remotes[r], 1).has_value() ? 1 : 0;
      r = (r + 1) % n;
    }
  });
  if (admitted == 0) throw std::runtime_error("NAT timing admitted nothing");
  return ns;
}

/// encode + decode of a RESPONSE carrying a full view buffer.
double codec_round_trip(std::size_t view_size) {
  std::vector<gossip::view_entry> entries;
  for (std::size_t i = 0; i < view_size; ++i) {
    entries.push_back(entry(static_cast<net::node_id>(10 + i),
                            static_cast<std::uint32_t>(i)));
  }
  gossip::gossip_message msg;
  msg.kind = gossip::message_kind::response;
  msg.sender = entry(1, 0).peer;
  msg.src = msg.sender;
  msg.dest = entry(2, 0).peer;
  msg.entries = entries;
  const auto wire_msg = gossip::make_message(msg);
  return median_ns_per_op(50000, [&](std::size_t ops) {
    for (std::size_t i = 0; i < ops; ++i) {
      const auto frame = wire::encode(*wire_msg);
      const wire::decode_result back = wire::decode(frame->bytes());
      if (back.error != wire::decode_error::none) {
        throw std::runtime_error("codec timing: round trip failed");
      }
    }
  });
}

/// One barrier generation crossed by `workers` threads.
double spin_barrier_round_trip(std::size_t workers) {
  return median_ns_per_op(20000, [&](std::size_t rounds) {
    sim::spin_barrier barrier(workers);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&] {
        for (std::size_t i = 0; i < rounds; ++i) barrier.arrive_and_wait();
      });
    }
    for (std::thread& t : threads) t.join();
  });
}

}  // namespace

std::vector<std::pair<std::string, double>> time_layers(
    const layer_sizes& sizes, std::uint64_t seed) {
  util::rng rng(seed);
  return {
      {"sim.event_queue.push_pop_ns",
       event_queue_push_pop(std::max<std::uint64_t>(sizes.queue_depth, 1),
                            rng)},
      {"gossip.view.merge_ns", view_merge(sizes.view_size, rng)},
      {"core.routing_table.lookup_ns", routing_lookup(sizes.routing_entries)},
      {"nat.nat_device.translate_filter_ns",
       nat_translate_filter(sizes.nat_rules)},
      {"wire.codec.round_trip_ns", codec_round_trip(sizes.view_size)},
      {"sim.spin_barrier.round_trip_ns",
       spin_barrier_round_trip(sizes.barrier_workers)},
  };
}

}  // namespace perfbench
