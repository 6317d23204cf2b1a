// Helpers shared by the federated drills: a watchdog that turns a hang into
// a test failure, and the vertically split synthetic fixture.

#ifndef VF2BOOST_TESTS_FED_TEST_UTIL_H_
#define VF2BOOST_TESTS_FED_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "obs/metrics_registry.h"

namespace vf2boost {

// Runs fn on a worker thread and waits up to timeout_seconds for it to
// finish. Returns false (and leaks the detached thread) on timeout so the
// test can FAIL instead of hanging the whole suite.
inline bool RunWithWatchdog(const std::function<void()>& fn,
                            double timeout_seconds) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread worker([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  const bool finished =
      cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                  [&] { return done; });
  lock.unlock();
  if (finished) {
    worker.join();
  } else {
    worker.detach();  // wedged; leak it rather than block the suite
  }
  return finished;
}

struct Fixture {
  Dataset train;
  VerticalSplitSpec spec;
  std::vector<Dataset> shards;  // A parties first, B last
};

// A synthetic dataset of `rows` x `cols` at density 0.5 drawn from `seed`,
// split by column shares `fractions` (B, the label holder, last) with the
// split drawn from seed + 1.
inline Fixture MakeFixture(size_t rows, size_t cols, uint64_t seed,
                           const std::vector<double>& fractions = {0.5, 0.5}) {
  SyntheticSpec sspec;
  sspec.rows = rows;
  sspec.cols = cols;
  sspec.density = 0.5;
  sspec.seed = seed;
  Fixture f;
  f.train = GenerateSynthetic(sspec);
  Rng rng(seed + 1);
  f.spec = SplitColumnsRandomly(cols, fractions, &rng);
  auto shards = PartitionVertically(f.train, f.spec,
                                    /*label_party=*/fractions.size() - 1);
  EXPECT_TRUE(shards.ok()) << shards.status().ToString();
  if (shards.ok()) f.shards = std::move(shards).value();
  return f;
}

// A party that `registry` belongs to was refused at the hello for a
// configuration mismatch: `status` names the cause, and no engine started
// (building one registers the party's party_* metrics).
inline void ExpectRefusedBeforeAnyEngine(const Status& status,
                                         const obs::MetricsRegistry& registry) {
  EXPECT_EQ(status.code(), StatusCode::kProtocolError) << status.ToString();
  EXPECT_NE(status.message().find("fingerprint mismatch"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(registry.Snapshot("party_").empty())
      << registry.Snapshot("party_").front().name;
}

}  // namespace vf2boost

#endif  // VF2BOOST_TESTS_FED_TEST_UTIL_H_
