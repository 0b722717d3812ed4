#!/usr/bin/env python3
"""Pipeline benchmark for greektag: train, cross-validate, tag, count, chisq.

One run generates a workload's inputs from the seed, then repeats
cycles until ``--seconds`` have passed (and at least MIN_CYCLES cycles
and MIN_LATENCIES per-sequence latencies were measured).  One cycle is:

1. the train worker reads the corpus, trains and saves the model, then
   runs the 10-fold cross-validation of ``greektag train``;
2. a fresh interpreter imports greektag and loads the model (set-up);
3. the tag worker loads the model, tags every text cold, warm and with a
   beam, then counts categories and runs the chi-square test.

Train and tag run in two long-lived single-threaded worker processes, so
each reports its own peak RSS; the steps of one cycle interleave, so a
slow phase of the machine falls on every metric alike.  Every time is
scaled to a reference CPU speed with the calibration loop timed around
it (calib.py); throughputs are medians over cycles.  After the cycles
the outputs are checked (see checks.py) and the result is printed; the
last line of stdout is one JSON object.

    python3 pipebench/run.py --workload wide-oov --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --workload all --seed 1 --seconds 2 --smoke

``--trace 1`` wraps greektag's public functions in the workers and
reports per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from calib import calibrate, scale  # noqa: E402

OUT = ROOT / ".pipebench"
BEAM = 4
MIN_CYCLES = 3
MIN_LATENCIES = 100
#: No new cycle starts after this many seconds of cycles; the process
#: is stopped at HARD_LIMIT whatever it is doing.
LAST_CYCLE_START = 110.0
HARD_LIMIT = 170.0

END_TO_END = [
    ("setup_s", "s"), ("train_tok_per_s", "tok/s"), ("train_cv_tok_per_s", "tok/s"),
    ("train_peak_rss_mb", "MB"), ("tag_cold_tok_per_s", "tok/s"),
    ("tag_warm_tok_per_s", "tok/s"), ("tag_beam_tok_per_s", "tok/s"),
    ("seq_p50_ms", "ms"), ("seq_p90_ms", "ms"), ("tag_peak_rss_mb", "MB"),
    ("count_tok_per_s", "tok/s"),
]

LAYERS = ("text", "tags", "morph", "model", "decode", "viterbi", "stylometry", "cli")

PER_LAYER = [
    ("text.tokenize_s", "s"), ("text.read_s", "s"), ("text.write_s", "s"),
    ("text.tokens", "count"), ("text.sequences", "count"), ("text.seq_len_max", "count"),
    ("tags.stats_build_s", "s"), ("tags.chain_prob_calls", "count"),
    ("tags.chain_prob_s", "s"), ("tags.observed_tags", "count"),
    ("morph.lexical_s", "s"), ("morph.lexical_calls", "count"),
    ("morph.lexical_misses", "count"), ("morph.lexical_hit_ratio", "ratio"),
    ("morph.train_lexicon_s", "s"),
    ("morph.tier.fullform_tokens", "count"), ("morph.tier.stem_tokens", "count"),
    ("morph.tier.suffix_tokens", "count"), ("morph.tier.prior_tokens", "count"),
    ("morph.tier.punct_tokens", "count"),
    ("morph.cand_width_mean", "tags"), ("morph.cand_width_max", "tags"),
    ("morph.cand_width_ratio", "ratio"),
    ("model.train_self_s", "s"), ("model.fit_interpolation_s", "s"),
    ("model.save_s", "s"), ("model.load_s", "s"), ("model.log_transition_calls", "count"),
    ("model.transition_misses", "count"), ("model.transition_hit_ratio", "ratio"),
    ("decode.trellis_s", "s"), ("decode.trellis_cells", "count"),
    ("decode.max_seq_cells", "count"),
    ("viterbi.kernel_s", "s"), ("viterbi.kernel_beam_s", "s"), ("viterbi.calls", "count"),
    ("viterbi.states", "count"),
    ("stylometry.count_s", "s"), ("stylometry.chisq_s", "s"), ("stylometry.csv_s", "s"),
    ("cli.cv_s", "s"), ("cli.cv_train_s", "s"), ("cli.cv_tag_s", "s"),
] + [(f"layer.{layer}.{what}", unit) for layer in LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"), ("errors", "count"))]

#: Interpreter start, import and model load, as `greektag tag` pays them.
SETUP_PROBE = ("import sys, time\nimport greektag\n"
               "greektag.Model.load(sys.argv[1])\nprint(repr(time.perf_counter()))\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    # one thread per process; a fixed string-hash seed, so that dict and
    # set layouts, and with them the timings, do not vary from run to run
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker.py process spoken to with JSON lines."""

    def __init__(self, cfg: dict, log: Path):
        self.log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True)
        self.logpath = log
        self.ask(cfg)

    def ask(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker died; see {self.logpath}")
        return json.loads(line)

    def close(self) -> dict:
        try:
            return self.ask({"op": "quit"})
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.log.close()


def setup_probe(model_path: Path) -> tuple[float, float]:
    """Seconds from starting an interpreter to a loaded model, and the
    calibration time around it."""
    before = calibrate()
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(model_path)], cwd=ROOT,
                       env=child_env(), capture_output=True, text=True, timeout=60)
    if p.returncode != 0:
        raise WorkerError(p.stderr.strip().splitlines()[-1] if p.stderr else "setup probe failed")
    seconds = float(p.stdout.split()[-1]) - t0
    return seconds, (before + calibrate()) / 2


def median(values):
    return statistics.median(values) if values else float("nan")


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# -- metrics ------------------------------------------------------------------------


def end_to_end(cycles, probes, rss, scaled=True) -> tuple[dict, dict]:
    """Metric values, and each metric's per-cycle samples.  With
    ``scaled`` every time is taken at the calibration's reference speed."""
    def t(seconds, cal):
        return scale(seconds, cal) if scaled else seconds

    trains = [c["train"] for c in cycles if "cv_s" in c["train"]]
    tags = [c["tag"] for c in cycles]
    samples = {
        "setup_s": [t(s, cal) for s, cal in probes],
        "train_tok_per_s": [r["tokens"] / t(r["train_s"], r["cal"]["train"]) for r in trains],
        "train_cv_tok_per_s": [r["tokens"] / (t(r["train_s"], r["cal"]["train"])
                                              + t(r["cv_s"], r["cal"]["cv"])) for r in trains],
        "count_tok_per_s": [r["count_tokens"] / t(r["count_s"] + r["chisq_s"], r["cal"]["count"])
                            for r in tags if "chisq_s" in r],
    }
    for label in ("cold", "warm", "beam"):
        samples[f"tag_{label}_tok_per_s"] = [
            r[label]["tokens"] / sum(t(x["s"], x["cal"]) for x in r[label]["texts"])
            for r in tags if r.get(label, {}).get("texts")]
    lat = [t(s, x["cal"]) for r in tags for x in r.get("warm", {}).get("texts", [])
           for s in x["lat"]]
    values = {k: median(v) for k, v in samples.items()}
    values["seq_p50_ms"] = median(lat) * 1e3 if lat else float("nan")
    values["seq_p90_ms"] = percentile(lat, 0.9) * 1e3 if lat else float("nan")
    values["train_peak_rss_mb"] = rss.get("train", float("nan"))
    values["tag_peak_rss_mb"] = rss.get("tag", float("nan"))
    return values, samples


def layer_cycle(train_trace: dict, tag_trace: dict) -> dict:
    """Per-layer metrics of one cycle from the two workers' trace snapshots."""
    stats, layer = {}, {}
    for snap in (train_trace, tag_trace):
        layer.update(snap["layer"])
        for name, st in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += st[i]

    def calls(n):
        return stats.get(n, [0, 0.0, 0.0, 0])[0]

    def total(n):
        return stats.get(n, [0, 0.0, 0.0, 0])[1]

    def own(n):
        return stats.get(n, [0, 0.0, 0.0, 0])[2]

    lexical_calls = calls("model.lexical_probs")
    tag_transitions = tag_trace["stats"].get("model.log_transition", [0])[0]
    out = {
        "text.tokenize_s": own("text.tokenize"),
        "text.read_s": own("text.load_annotated_corpus"),
        "text.write_s": own("text.save_annotated_corpus"),
        "tags.stats_build_s": own("tags.TransitionStats"),
        "tags.chain_prob_calls": calls("tags.chain_prob"),
        "tags.chain_prob_s": total("tags.chain_prob"),
        "morph.lexical_s": total("morph.lexical_prob"),
        "morph.lexical_calls": lexical_calls,
        "morph.lexical_misses": calls("morph.lexical_prob"),
        "morph.lexical_hit_ratio": (1 - calls("morph.lexical_prob") / lexical_calls
                                    if lexical_calls else 0.0),
        "morph.train_lexicon_s": total("morph.train_lexicon"),
        "model.train_self_s": own("model.train"),
        "model.fit_interpolation_s": total("model.fit_interpolation"),
        "model.save_s": total("model.Model.save"),
        "model.load_s": total("model.Model.load"),
        "model.log_transition_calls": calls("model.log_transition"),
        "_tag_transitions": tag_transitions,
        "decode.trellis_s": own("decode.tag_sequence") + own("cli.tag_sequence"),
        "viterbi.kernel_s": total("viterbi.exact"),
        "viterbi.kernel_beam_s": total("viterbi.beam"),
        "viterbi.calls": calls("viterbi.exact") + calls("viterbi.beam"),
        "viterbi.states": train_trace["extra"].get("viterbi.states", 0)
        + tag_trace["extra"].get("viterbi.states", 0),
        "stylometry.count_s": total("stylometry.count_categories"),
        "stylometry.chisq_s": total("stylometry.run_test") + total("stylometry.render_report"),
        "stylometry.csv_s": total("stylometry.save_counts_csv")
        + total("stylometry.load_counts_csv"),
        "cli.cv_s": total("cli.cross_validation"),
        "cli.cv_train_s": total("cli.train"),
        "cli.cv_tag_s": total("cli.tag_sequence"),
    }
    for name in LAYERS + ("bench",):
        members = [n for n, lay in layer.items() if lay == name]
        out[f"layer.{name}.calls"] = sum(stats[n][0] for n in members)
        out[f"layer.{name}.self_s"] = sum(stats[n][2] for n in members)
        out[f"layer.{name}.errors"] = sum(stats[n][3] for n in members)
    return out


def describe_inputs(inputs, model_path: Path) -> tuple[dict, dict]:
    """Counts of the tagged input, from greektag's public functions:
    tiers from segment and the lexicon, widths from lexical_probs,
    trellis cells and distinct transition triples from the candidates."""
    from greektag import Model, segment
    from greektag.text import is_punct, tokenize

    m = Model.load(model_path)
    lex = m.lexicon
    tiers = dict.fromkeys(("fullform", "stem", "suffix", "prior", "punct"), 0)
    tier_widths = {k: [] for k in tiers}
    widths, lengths = [], []
    cells = max_cells = 0
    combos = set()
    for path in inputs.text_paths:
        for seq in tokenize(Path(path).read_text(encoding="utf-8")):
            lengths.append(len(seq))
            cand = []
            for tok in seq.tokens:
                w = tok.norm
                if is_punct(w):
                    tier = "punct"
                elif w in lex.fullforms:
                    tier = "fullform"
                else:
                    analyses = segment(w, lex)
                    if any(a.stem in lex.stems for a in analyses):
                        tier = "stem"
                    elif any(a.suffix for a in analyses):
                        tier = "suffix"
                    else:
                        tier = "prior"
                c = tuple(t for t, _ in m.lexical_probs(w))
                tiers[tier] += 1
                tier_widths[tier].append(len(c))
                widths.append(len(c))
                cand.append(c)
            seq_cells = 0
            boundary = (None,)
            for k, c in enumerate(cand):
                a = cand[k - 2] if k >= 2 else boundary
                b = cand[k - 1] if k >= 1 else boundary
                seq_cells += len(a) * len(b) * len(c)
                combos.add((a, b, c))
            cells += seq_cells
            max_cells = max(max_cells, seq_cells)
    triples = set()
    for a, b, c in combos:
        triples.update((t, y, x) for x in a for y in b for t in c)
    observed = len(m.stats.observed_tags)
    mean_width = statistics.fmean(widths)
    out = {
        "text.tokens": sum(lengths), "text.sequences": len(lengths),
        "text.seq_len_max": max(lengths), "tags.observed_tags": observed,
        "morph.cand_width_mean": mean_width, "morph.cand_width_max": max(widths),
        "morph.cand_width_ratio": mean_width / observed,
        "decode.trellis_cells": cells, "decode.max_seq_cells": max_cells,
        "model.transition_misses": len(triples),
    }
    for tier, n in tiers.items():
        out[f"morph.tier.{tier}_tokens"] = n
    widths_by_tier = {k: round(statistics.fmean(v), 2) for k, v in tier_widths.items() if v}
    return out, widths_by_tier


# -- one workload -----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    out = OUT / f"{workload}-s{seed}{'-trace' if trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    inputs = gen.generate(workload, seed, out / "inputs", smoke)
    (out / "train").mkdir(parents=True)
    (out / "tag").mkdir()
    model_path = out / "model.gtm"
    base = {"schema": inputs.schema_path, "rules": inputs.rules_path, "trace": trace}
    n_texts = len(inputs.text_paths)
    ops_per_cycle = 2 + 1 + 1 + 3 * n_texts + 2
    cycles, probes, failed_ops = [], [], []
    latencies = 0
    rss: dict[str, float] = {}
    workers: list[Worker] = []
    watchdog = threading.Timer(HARD_LIMIT, lambda: [w.proc.kill() for w in workers])
    watchdog.daemon = True
    watchdog.start()
    try:
        workers.append(Worker({**base, "role": "train", "corpus": inputs.corpus_path,
                               "model": str(out / "train" / "model.gtm"),
                               "out": str(out / "train")}, out / "train.log"))
        workers.append(Worker({**base, "role": "tag", "model": str(model_path),
                               "texts": inputs.text_paths, "beam": BEAM,
                               "out": str(out / "tag")}, out / "tag.log"))
        trainer, tagger = workers
        t0 = time.perf_counter()
        while True:
            cycle = len(cycles)
            tr = trainer.ask({"op": "round", "cycle": cycle})
            if cycle == 0 and (out / "train" / "model.gtm").exists():
                shutil.copyfile(out / "train" / "model.gtm", model_path)
            try:
                probes.append(setup_probe(model_path))
            except (WorkerError, subprocess.TimeoutExpired, ValueError) as exc:
                failed_ops.append(f"setup: {exc}")
            tg = tagger.ask({"op": "round", "cycle": cycle})
            latencies += sum(len(x["lat"]) for x in tg.get("warm", {}).get("texts", []))
            failed_ops.extend(tr["failed"] + tg["failed"])
            cycles.append({"train": tr, "tag": tg})
            elapsed = time.perf_counter() - t0
            enough = len(cycles) >= MIN_CYCLES and (
                trace or smoke or latencies >= MIN_LATENCIES)
            if (elapsed >= seconds and enough) or elapsed >= LAST_CYCLE_START:
                break
        measured = time.perf_counter() - t0
        rss["train"] = trainer.close()["peak_rss_mb"]
        rss["tag"] = tagger.close()["peak_rss_mb"]
    finally:
        for w in workers:
            w.stop()
        watchdog.cancel()

    seen = {}
    try:
        import checks
        failures, seen = checks.run_checks(inputs, out, model_path, [c["train"] for c in cycles],
                                           [c["tag"] for c in cycles], seed)
    except Exception as exc:  # a check that cannot run is a failed check
        failures = [f"checks could not run: {type(exc).__name__}: {exc}"]
    inputs.makeup.update(seen)

    result = {"workload": workload, "seed": seed, "cycles": len(cycles),
              "measured_s": round(measured, 3), "beam": BEAM,
              "latency_samples": latencies, "makeup": inputs.makeup,
              "correct": not failures, "check_failures": failures,
              "attempted": ops_per_cycle * len(cycles), "failed": len(failed_ops),
              "failed_ops": failed_ops}
    e2e, samples = end_to_end(cycles, probes, rss)
    within = {k: round(spread(v), 4) for k, v in samples.items()}
    result["end_to_end"] = e2e
    result["end_to_end_unscaled"] = end_to_end(cycles, probes, rss, scaled=False)[0]
    result["calibration_s"] = median(
        [c for cyc in cycles for part in ("train", "tag") for c in cyc[part].get("cal", {}).values()]
        + [x["cal"] for cyc in cycles for label in ("cold", "warm", "beam")
           for x in cyc["tag"].get(label, {}).get("texts", [])])
    result["within_run_spread"] = within
    result["samples"] = samples
    result["raw"] = {"probes": probes, "cycles": [timings(c) for c in cycles]}
    if trace:
        per_cycle = [layer_cycle(c["train"]["trace"], c["tag"]["trace"]) for c in cycles]
        described, widths_by_tier = describe_inputs(inputs, model_path)
        layers = {k: median([pc[k] for pc in per_cycle]) for k in per_cycle[0]}
        layers.update(described)
        tag_transitions = layers.pop("_tag_transitions")
        layers["model.transition_hit_ratio"] = (
            1 - described["model.transition_misses"] / tag_transitions if tag_transitions else 0.0)
        result["per_layer"] = layers
        result["makeup"]["cand_width_by_tier"] = widths_by_tier
        busy = sum(layers[f"layer.{n}.self_s"] for n in LAYERS)
        result["self_time_share"] = {n: round(layers[f"layer.{n}.self_s"] / busy, 4)
                                     for n in LAYERS} if busy else {}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"== {workload} seed {seed} ({'traced' if trace else 'untraced'}): "
        f"{len(cycles)} cycles in {measured:.1f} s, {latencies} sequence latencies, "
        f"calibration loop {result['calibration_s'] * 1e3:.2f} ms")
    print(f"  {'metric':<22} {'at reference speed':>18} {'as measured':>14}  within-run spread")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {e2e[name]:>12.4f} {unit:<5} "
            f"{result['end_to_end_unscaled'][name]:>14.4f}  {within.get(name, 0.0):.3f}")
    if trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {result['per_layer'][name]:>14.6g} {unit}")
        print("  self-time share: " + ", ".join(f"{k} {v:.1%}"
                                                for k, v in result["self_time_share"].items()))
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {result['correct']}")
    for f in failures + failed_ops:
        print(f"  FAILED: {f}")
    return result


def timings(answer):
    """A cycle's worker answers without hashes, traces, reports and latencies."""
    if isinstance(answer, list):
        return [timings(v) for v in answer]
    if not isinstance(answer, dict):
        return answer
    return {k: timings(v) for k, v in answer.items()
            if k not in ("trace", "report", "sha", "model_sha", "counts_sha", "failed", "lat")}


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": result["per_layer"][name], "unit": unit}
                for name, unit in PER_LAYER}
    return {name: {"value": result["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for a quick check that everything runs")
    args = ap.parse_args()
    missing = [p for p in (ROOT / "src" / "greektag" / "__init__.py", gen.TOY_SCHEMA,
                           gen.TOY_RULES, gen.DEFAULT_SCHEMA) if not p.is_file()]
    if missing:
        print(f"pipebench: greektag sources not found: {missing[0]}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, trace, args.smoke) for w in workloads]
    if len(results) == 1:
        metrics = metrics_of(results[0], trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, trace).items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
