// vf2_chaosd — seeded TCP fault proxy for chaos drills against the real
// transport. Sits between the A parties and Party B:
//
//   vf2_fedtrain --listen 19740 ...                      # party B
//   vf2_chaosd --listen 19741 --connect 127.0.0.1:19740
//       --scenario "corrupt@tree=2,drop@tree=3" --seed 7
//   vf2_fedtrain --connect 127.0.0.1:19741 --party a0 ...
//
// Every fault decision is a deterministic function of --seed, the direction,
// and the connection index, so a failing drill replays exactly. See
// fed/chaos_proxy.h for the scenario grammar.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "fed/chaos_proxy.h"
#include "obs/metrics_registry.h"
#include "tools/flags.h"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }
}  // namespace

int main(int argc, char** argv) {
  using namespace vf2boost;
  tools::Flags flags(
      argc, argv,
      {{"listen", "port to accept A-party connections on (required)"},
       {"listen-address", "bind address (default 127.0.0.1)"},
       {"connect", "upstream party B as HOST:PORT (required)"},
       {"seed", "fault PRNG seed (default 0xC4A05)"},
       {"latency-ms", "fixed delay added to every forwarded chunk"},
       {"jitter-ms", "extra uniform random delay in [0, JITTER) ms"},
       {"corrupt-prob", "per-chunk probability of a one-byte flip"},
       {"scenario", "scripted faults, e.g. drop@tree=3,partition@tree=5:10s; "
                    "throttle=KBPS@0 caps the rate for the whole run "
                    "(see fed/chaos_proxy.h)"},
       {"metrics-json", "write the chaos/* counters here on exit"}});
  flags.Require({"listen", "connect"});

  const std::string hostport = flags.GetString("connect");
  const size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "--connect wants HOST:PORT\n");
    return 1;
  }

  ChaosProxy::Options options;
  options.listen_address = flags.GetString("listen-address", "127.0.0.1");
  options.listen_port = static_cast<int>(flags.GetInt("listen", 0));
  options.connect_host = hostport.substr(0, colon);
  options.connect_port = std::atoi(hostport.c_str() + colon + 1);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 0xC4A05));
  options.latency_ms = flags.GetDouble("latency-ms", 0);
  options.jitter_ms = flags.GetDouble("jitter-ms", 0);
  options.corrupt_chunk_probability = flags.GetDouble("corrupt-prob", 0);
  if (flags.Has("scenario")) {
    if (Status st =
            ParseChaosScenario(flags.GetString("scenario"), &options.events);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  obs::MetricsRegistry registry;
  options.registry = &registry;

  auto proxy = ChaosProxy::Start(options);
  if (!proxy.ok()) {
    std::fprintf(stderr, "%s\n", proxy.status().ToString().c_str());
    return 1;
  }
  // CI scripts wait for this exact line before launching the parties.
  std::printf("vf2_chaosd listening on %d -> %s (seed %llu, %zu scripted "
              "events)\n",
              (*proxy)->port(), hostport.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.events.size());
  std::fflush(stdout);

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  (*proxy)->Stop();

  std::printf("vf2_chaosd done: %zu connections, %zu trees observed, %zu "
              "events fired\n",
              (*proxy)->connections(), (*proxy)->trees_done(),
              (*proxy)->events_fired());
  if (flags.Has("metrics-json")) {
    const std::string path = flags.GetString("metrics-json");
    if (!registry.WriteJson(path)) return 1;
    std::printf("wrote %zu metrics to %s\n", registry.size(), path.c_str());
  }
  return 0;
}
