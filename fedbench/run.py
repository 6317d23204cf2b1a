#!/usr/bin/env python3
"""fedbench: end-to-end and per-layer benchmark of vf2boost.

Every workload trains over loopback TCP with each party in its own OS process
(vf2_fedtrain --listen / --connect), the deployment shape of the paper. One
run builds the programs from source (first run only), generates the
workload's datasets from --seed, trains on them in turn ("sets") for
--seconds, checks every set's output, and prints one JSON line last:

  python3 fedbench/run.py --workload vf2boost-1024-tall --seed 1 \\
      --seconds 24 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 interleaves traced and
untraced sets and adds the per-layer ladder (fedbench_ladder) to report the
per-layer metrics. --smoke runs every workload at tiny sizes with 256-bit
keys in both modes and checks that every metric named in BENCHMARK.json is
emitted and every output check passes. See fedbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload keeps one layer dominant; README.md gives the reasons.
WORKLOADS = {
    "vf2boost-2048-wide": dict(protocol="vf2boost", key_bits=2048, parties=2,
                               rows=2000, cols=16, layers=4, bins=8, trees=1,
                               workers=2),
    "vf2boost-1024-tall": dict(protocol="vf2boost", key_bits=1024, parties=2,
                               rows=12000, cols=16, layers=4, bins=8,
                               trees=1, workers=2),
    "vfgbdt-1024": dict(protocol="vfgbdt", key_bits=1024, parties=2,
                        rows=1200, cols=20, layers=4, bins=8, trees=1,
                        workers=2),
    "mock-3party": dict(protocol="mock", key_bits=1024, parties=3,
                        rows=20000, cols=60, layers=7, bins=20, trees=3,
                        workers=1),
}
# Smoke shapes: tiny data and 256-bit keys, same protocol paths. VF-GBDT
# gets 1024-bit keys: at 256 and 512 bits its model changes from run to run
# of the same inputs (a noise-pool miss draws the nonce from the stream that
# also samples encoding exponents), which the model check reports.
SMOKE = dict(key_bits=256, rows=400, cols=12, layers=3, bins=8, trees=2)
SMOKE_KEY_BITS = {"vfgbdt-1024": 1024}
VALID_FRACTION = 0.25     # extra generated rows held out for AUC ...
VALID_MIN_ROWS = 2000     # ... at least this many, so AUC is steady
AUC_TOLERANCE = 0.05      # the tolerance fed_test uses against src/gbdt
# Datasets per untraced run. Which party owns the informative columns
# changes with the data, and with it the optimistic rollbacks and the work
# per tree, so one dataset per run would make tree_s a property of the seed.
DATASETS = 10
SET_TIMEOUT_S = 30        # one training set is killed after this
RUN_DEADLINE_S = 120      # no new set starts after this much wall time

GMP_RATIOS = ("bigint.montmul_gmp_ratio", "bigint.modexp_gmp_ratio")
END_TO_END = [("tree_s", "s"), ("setup_s", "s"), ("wan_bytes_per_tree", "bytes"),
              ("auc", "ratio"), ("peak_rss_mb", "MB")]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "fedbench")


def build():
    """Configures once and builds (a no-op when up to date). Returns bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bigint", "bigint.h")):
        raise SystemExit("fedbench: repository sources (src/) not found")
    out = build_dir()
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, env=env)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise SystemExit("fedbench: build failed: " + " ".join(cmd))
    return out


def host_record(bins, key_bits):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    r = subprocess.run([os.path.join(bins, "fedbench_ladder"), "--host-only",
                        "--key-bits", str(key_bits)],
                       stdout=subprocess.PIPE, text=True, check=True)
    host = json.loads(r.stdout)["host"]
    host.update(nproc=os.cpu_count(), cpu_model=cpu)
    return host


class Dataset:
    """One generated dataset of a run and its src/gbdt reference AUC. The
    k-th dataset of a run depends only on the workload seed and k."""

    def __init__(self, bins, cfg, seed, k, work):
        self.path = os.path.join(work, "d%d" % k)
        os.makedirs(self.path, exist_ok=True)
        self.train = os.path.join(self.path, "train.libsvm")
        self.valid = os.path.join(self.path, "valid.libsvm")
        data_seed = seed * 7919 + k
        # The parties get the generated files plus this derived
        # partition/crypto seed, nothing else.
        self.fed_seed = (data_seed * 1000003 + 12345) % (1 << 31)
        valid_rows = max(VALID_MIN_ROWS, int(cfg["rows"] * VALID_FRACTION))
        full = os.path.join(self.path, "full.libsvm")
        subprocess.run([os.path.join(bins, "vf2_datagen"), "--rows",
                        str(cfg["rows"] + valid_rows), "--cols",
                        str(cfg["cols"]), "--seed", str(data_seed), "--out",
                        full], stdout=subprocess.DEVNULL, check=True)
        with open(full) as f, open(self.train, "w") as tr, \
                open(self.valid, "w") as va:
            for i, line in enumerate(f):
                (tr if i < cfg["rows"] else va).write(line)
        os.remove(full)
        r = subprocess.run([os.path.join(bins, "vf2_train"), "--data",
                            self.train, "--valid", self.valid, "--model",
                            os.path.join(self.path, "ref_model.txt"),
                            "--trees", str(cfg["trees"]), "--layers",
                            str(cfg["layers"]), "--bins", str(cfg["bins"])],
                           stdout=subprocess.PIPE, text=True, check=True)
        self.ref_auc = float(re.findall(r"valid_auc ([0-9.]+)", r.stdout)[-1])
        self.model = None  # the first set's serialized model


def load_metrics(path):
    with open(path) as f:
        return {e["name"]: e["value"] for e in json.load(f)["benchmarks"]}


def run_set(bins, cfg, data, index, traced):
    """Trains once with every party in its own process. Returns a dict."""
    tag = os.path.join(data.path, "set%d" % index)
    common = ["--data", data.train, "--parties", str(cfg["parties"]),
              "--protocol", cfg["protocol"], "--key-bits", str(cfg["key_bits"]),
              "--trees", str(cfg["trees"]), "--layers", str(cfg["layers"]),
              "--bins", str(cfg["bins"]), "--workers", str(cfg["workers"]),
              "--seed", str(data.fed_seed), "--connect-timeout", "60",
              "--no-clock-sync"]
    fedtrain = os.path.join(bins, "vf2_fedtrain")
    names = ["b"] + ["a%d" % i for i in range(cfg["parties"] - 1)]
    procs, exits, threads = {}, {}, []

    def reap(name, proc):
        _, status, rusage = os.wait4(proc.pid, 0)
        exits[name] = (time.monotonic(), os.waitstatus_to_exitcode(status),
                       rusage)
        proc.returncode = exits[name][1]

    def launch(name, cmd):
        if traced:
            cmd = cmd + ["--trace-out", "%s.%s.trace.json" % (tag, name),
                         "--metrics-out", "%s.%s.json" % (tag, name)]
        with open("%s.%s.log" % (tag, name), "w") as out:
            procs[name] = subprocess.Popen(cmd, stdout=out,
                                           stderr=subprocess.STDOUT)
        th = threading.Thread(target=reap, args=(name, procs[name]))
        th.start()
        threads.append(th)

    # B starts first and the A parties once it listens, so no A party sits
    # in its 100 ms redial sleep: set-up time does not depend on that race.
    t0 = time.monotonic()
    launch("b", [fedtrain] + common + [
        "--listen", "0", "--valid", data.valid, "--model", tag + ".model"] +
        ([] if traced else ["--metrics-out", tag + ".b.json"]))
    deadline = t0 + SET_TIMEOUT_S
    port = None
    while port is None and "b" not in exits and time.monotonic() < deadline:
        with open(tag + ".b.log") as f:
            m = re.search(r"listening on port (\d+)", f.read())
        if m:
            port = int(m.group(1))
        else:
            time.sleep(0.002)
    if port is not None:
        for name in names[1:]:
            launch(name, [fedtrain] + common + [
                "--connect", "127.0.0.1:%d" % port, "--party", name])
    for th in threads:
        th.join(max(0.0, deadline - time.monotonic()))
    timed_out = any(th.is_alive() for th in threads)
    if timed_out:
        for p in procs.values():
            if p.returncode is None:
                p.kill()
        for th in threads:
            th.join()

    res = dict(errors=[], t0=t0, traced=traced)
    if timed_out:
        res["errors"].append("set timed out after %ds" % SET_TIMEOUT_S)
    for name in names:
        code = exits[name][1] if name in exits else None
        if code != 0:
            res["errors"].append("party %s exited with %s" % (name, code))
    if res["errors"]:
        for name in procs:
            with open("%s.%s.log" % (tag, name)) as f:
                log("--- %s log ---\n%s" % (name, f.read()[-2000:]))
        return res
    with open(tag + ".b.log") as f:
        b_out = f.read()
    elapsed = [float(x) for x in re.findall(r"^tree +\d+ +([0-9.]+)s", b_out,
                                             re.M)]
    auc = re.findall(r"^valid auc ([0-9.]+)", b_out, re.M)
    if len(elapsed) != cfg["trees"] or not auc:
        res["errors"].append("party B reported %d trees, auc %s" %
                             (len(elapsed), auc))
        return res
    b_metrics = load_metrics(tag + ".b.json")
    train_s = elapsed[-1]
    first_a_exit = min(exits[n][0] for n in names[1:])
    wire = (b_metrics["transport/tcp/bytes_read"] +
            b_metrics["transport/tcp/bytes_written"])
    with open(tag + ".model", "rb") as f:
        model = f.read()
    res.update(
        tree_s=train_s / cfg["trees"],
        # Training ends when B sends kTrainDone, which is when the A parties
        # exit; the first tree starts train_s before that.
        setup_s=(first_a_exit - t0) - train_s,
        wan_bytes_per_tree=wire / cfg["trees"],
        auc=float(auc[0]),
        peak_rss_mb=max(exits[n][2].ru_maxrss for n in names) / 1024.0,
        model=model, exits=exits, names=names, tag=tag, b_metrics=b_metrics)
    return res


def check_set(res, data):
    """Output checks of one finished set; returns the list of failures."""
    errors = list(res["errors"])
    if not errors:
        if res["auc"] < data.ref_auc - AUC_TOLERANCE:
            errors.append("federated auc %.5f below src/gbdt %.5f - %.2f" %
                          (res["auc"], data.ref_auc, AUC_TOLERANCE))
        if data.model is None:
            data.model = res["model"]
        elif res["model"] != data.model:
            errors.append("model differs from the first set at the same seed")
    return errors


def per_layer(cfg, res):
    """Per-layer metrics of one traced set, from the parties' --metrics-out
    files and the processes' resource usage."""
    T = float(cfg["trees"])
    b = res["b_metrics"]
    a_names = res["names"][1:]
    a = [load_metrics("%s.%s.json" % (res["tag"], n)) for n in a_names]

    def a_vals(key):
        return [m.get("party_%s/%s" % (n, key), 0.0) for n, m in zip(a_names, a)]

    def cpu_per_wall(name):
        t_exit, _, ru = res["exits"][name]
        return (ru.ru_utime + ru.ru_stime) / (t_exit - res["t0"])

    hits = b["party_b/noise_pool/hits"]
    misses = b["party_b/noise_pool/misses"]
    opt = b["party_b/optimistic_splits"]
    # A parties work in parallel, so their phase times take the slowest one;
    # op counts add up.
    return {
        "hist.hadds": sum(a_vals("hadds")) / T,
        "hist.scalings": sum(a_vals("scalings")) / T,
        "hist.packs": sum(a_vals("packs")) / T,
        "hist.decryptions": b["party_b/decryptions"] / T,
        "proto.a_build_hist_s": max(a_vals("phase/build_hist")) / T,
        "proto.a_pack_s": max(a_vals("phase/pack")) / T,
        "proto.a_comm_wait_s": max(a_vals("phase/comm_wait")) / T,
        "proto.b_encrypt_s": b["party_b/phase/encrypt"] / T,
        "proto.b_decrypt_s": b["party_b/phase/decrypt"] / T,
        "proto.b_find_split_s": b["party_b/phase/find_split"] / T,
        "proto.b_comm_wait_s": b["party_b/phase/comm_wait"] / T,
        "proto.a_cpu_per_wall": max(cpu_per_wall(n) for n in a_names),
        "proto.b_cpu_per_wall": cpu_per_wall("b"),
        # 0 where the workload does not split optimistically.
        "proto.optimistic_kept_ratio":
            1.0 - b["party_b/dirty_nodes"] / opt if opt else 0.0,
        "proto.redone_builds": sum(a_vals("redone_hist_builds")) / T,
        "crypto.noise_pool_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "net.bytes_a_to_b": b["transport/tcp/bytes_read"] / T,
        "net.bytes_b_to_a": b["transport/tcp/bytes_written"] / T,
        "net.frames": (b["transport/tcp/frames_read"] +
                       b["transport/tcp/frames_written"]) / T,
        "net.short_writes": b["transport/tcp/short_writes"] +
                            sum(m["transport/tcp/short_writes"] for m in a),
        "os.a_peak_rss_mb":
            max(res["exits"][n][2].ru_maxrss for n in a_names) / 1024.0,
        "os.b_peak_rss_mb": res["exits"]["b"][2].ru_maxrss / 1024.0,
        # Inputs of the explained shares below (A0 is the first A party).
        "_encryptions": b["party_b/encryptions"] / T,
        "_a0_hadds": a_vals("hadds")[0] / T,
        "_a0_scalings": a_vals("scalings")[0] / T,
        "_a0_packs": a_vals("packs")[0] / T,
        "_a0_build_hist_s": a_vals("phase/build_hist")[0] / T,
        "_a0_pack_s": a_vals("phase/pack")[0] / T,
    }


def explained_shares(cfg, m):
    """Ladder per-op cost x the run's op counts / measured phase seconds.

    Op costs are single-thread, so a phase spread over W workers can explain
    up to W. Report only; mock crypto explains nothing (all shares 0)."""
    def share(predicted, measured):
        return predicted / measured if measured > 0 and cfg["protocol"] != "mock" \
            else 0.0

    miss = 1.0 - m["crypto.noise_pool_hit_ratio"]
    return {
        "explained_share.encrypt": share(
            m["_encryptions"] * (m["crypto.enc_us"] +
                                 miss * m["crypto.nonce_us"]) * 1e-6,
            m["proto.b_encrypt_s"]),
        "explained_share.build_hist": share(
            m["_a0_hadds"] * m["crypto.hadd_ns"] * 1e-9 +
            m["_a0_scalings"] * m["crypto.scale_us"] * 1e-6,
            m["_a0_build_hist_s"]),
        "explained_share.pack": share(
            m["_a0_packs"] * m["ladder.slots_per_pack"] *
            m["crypto.smul_pow2_us"] * 1e-6, m["_a0_pack_s"]),
        "explained_share.decrypt": share(
            m["hist.decryptions"] * m["crypto.dec_us"] * 1e-6,
            m["proto.b_decrypt_s"]),
    }


def run_ladder(bins, cfg, data, budget):
    """The ladder's metrics on `data`, or None when it fails."""
    try:
        r = subprocess.run(
            [os.path.join(bins, "fedbench_ladder"), "--data", data.train,
             "--protocol", cfg["protocol"], "--key-bits", str(cfg["key_bits"]),
             "--parties", str(cfg["parties"]), "--workers",
             str(cfg["workers"]), "--bins", str(cfg["bins"]), "--seed",
             str(data.fed_seed), "--budget", str(budget), "--trace-out",
             os.path.join(data.path, "ladder.trace.json")],
            stdout=subprocess.PIPE, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    if r.returncode != 0:
        return None
    return json.loads(r.stdout)["metrics"]


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, cfg, seed, seconds, trace, datasets=DATASETS,
                 ladder_budget=0.15, keep=False):
    """One benchmark run. Returns (result, host, errors).

    Untraced: sets cycle over `datasets` generated datasets until --seconds
    have passed, with at least one set per dataset plus one repeat (for the
    model check); a metric is the mean over datasets of each dataset's
    median. Traced: untraced and traced sets alternate on the first dataset,
    then the ladder runs on it."""
    bins = build()
    host = host_record(bins, cfg["key_bits"])
    work = os.path.join(os.path.dirname(build_dir()), "fedbench-work",
                        "%s-s%d-%d" % (name, seed, os.getpid()))
    try:
        data = [Dataset(bins, cfg, seed, k, work)
                for k in range(1 if trace else datasets)]
        sets, errors = [], []
        start = time.monotonic()
        measured = last = 0.0
        min_sets = 2 if trace else len(data) + 1
        while len(sets) < min_sets or measured < seconds:
            i = len(sets)
            if i and time.monotonic() - start + last > RUN_DEADLINE_S:
                break
            d = data[i % len(data)]
            t = time.monotonic()
            res = run_set(bins, cfg, d, i, traced=bool(trace and i % 2))
            last = time.monotonic() - t
            measured += last
            res["data"] = d
            res["failures"] = check_set(res, d)
            errors += ["set %d: %s" % (i, e) for e in res["failures"]]
            if not res["failures"]:
                log("set %d (data %d%s): tree_s %.3f setup_s %.3f" % (
                    i, data.index(d), ", traced" if res["traced"] else "",
                    res["tree_s"], res["setup_s"]))
            sets.append(res)
        ok = [s for s in sets if not s["failures"]]
        attempted, failed = len(sets), len(sets) - len(ok)
        if not trace:
            metrics = {}
            for k, _ in END_TO_END:
                per_data = [median(v) for v in (
                    [s[k] for s in ok if s["data"] is d] for d in data) if v]
                metrics[k] = statistics.mean(per_data) if per_data else 0.0
            units = dict(END_TO_END)
        else:
            traced = [s for s in ok if s["traced"]]
            plain = [s for s in ok if not s["traced"]]
            layers = [per_layer(cfg, s) for s in traced]
            metrics = {k: median([m[k] for m in layers])
                       for k in (layers[0] if layers else {})}
            attempted += 1
            ladder = run_ladder(bins, cfg, data[0], ladder_budget)
            if ladder is None or not layers or not plain:
                failed += 1
                errors.append("ladder failed" if ladder is None
                              else "no traced or untraced set succeeded")
            else:
                # Without GMP in the build the two ratios read 0.
                metrics.update({k: 0.0 for k in GMP_RATIOS})
                metrics.update(ladder)
                metrics.update(explained_shares(cfg, metrics))
                base = median([s["tree_s"] for s in plain])
                metrics["trace_overhead_pct"] = 100.0 * (
                    median([s["tree_s"] for s in traced]) / base - 1.0) \
                    if base > 0 else 0.0
            metrics = {k: v for k, v in metrics.items()
                       if not k.startswith(("_", "ladder."))}
            units = {k: unit_of(k) for k in metrics}
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in sorted(metrics.items())}}
        return result, host, errors
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


def unit_of(name):
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_s", "s"),
                         ("_mb", "MB"), ("_pct", "%"), ("_ratio", "ratio"),
                         ("_per_wall", "ratio")):
        if name.endswith(suffix):
            return unit
    if name.startswith("explained_share."):
        return "ratio"
    if name.startswith("net.bytes"):
        return "bytes"
    return "count"


def benchmark_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def smoke(names):
    """Tiny shapes, 256-bit keys: every metric emitted, every check passes."""
    bad = []
    for name in names:
        cfg = dict(WORKLOADS[name], **SMOKE)
        cfg["key_bits"] = SMOKE_KEY_BITS.get(name, cfg["key_bits"])
        for trace in (0, 1):
            result, _, errors = run_workload(name, cfg, seed=1, seconds=0,
                                             trace=trace, datasets=2,
                                             ladder_budget=0.01)
            want = benchmark_names(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = errors + ["missing metric %s" % k
                                 for k in want if k not in got]
            problems += ["metric %s has unit %s, BENCHMARK.json says %s" %
                         (k, got[k], u) for k, u in want.items()
                         if k in got and got[k] != u]
            problems += ["unlisted metric %s" % k for k in got if k not in want]
            if not result["correct"]:
                problems.append("run not correct")
            print("smoke %-20s trace=%d %s" % (name, trace,
                                               "ok" if not problems else "FAIL"))
            bad += ["%s trace=%d: %s" % (name, trace, p) for p in problems]
    for p in bad:
        log(p)
    return not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny shapes, 256-bit keys, all workloads (or "
                         "--workload), both modes; exit 1 on any problem")
    ap.add_argument("--keep", action="store_true",
                    help="keep the run's work directory (data, logs, traces)")
    args = ap.parse_args()
    if args.smoke:
        return 0 if smoke([args.workload] if args.workload
                          else sorted(WORKLOADS)) else 1
    if not args.workload:
        ap.error("--workload is required")
    cfg = WORKLOADS[args.workload]
    result, host, errors = run_workload(args.workload, cfg, args.seed,
                                        args.seconds, args.trace,
                                        keep=args.keep)
    for e in errors:
        log("check failed: " + e)
    host["workload"] = args.workload
    host["seed"] = args.seed
    print("host " + json.dumps(host, sort_keys=True))
    print("error_rate %.4f ratio (%d failed of %d attempted)" % (
        result["failed"] / result["attempted"], result["failed"],
        result["attempted"]))
    for k, v in result["metrics"].items():
        print("%-32s %.6g %s" % (k, v["value"], v["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
