"""Benchmark worker: one process that trains, or one that tags and counts.

Started by ``run.py``; reads one JSON command per line on stdin and
answers each with one JSON line on stdout.  The first line configures
the worker (role, input paths, trace flag); then every ``round``
command runs one round of the role's pipeline steps and ``quit`` ends
the process after reporting its peak RSS (and, when traced, writing its
spans).  Each timed step calls greektag's public functions in the order
the ``greektag`` command does.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from greektag import cli, decode, model, stylometry, text  # noqa: E402
from greektag.morph import RuleSet  # noqa: E402
from greektag.tags import TagSchema  # noqa: E402

import spans  # noqa: E402
from calib import calibrate  # noqa: E402

perf = time.perf_counter

#: The traced run keeps the spans of this cycle (the first one may still
#: include one-off costs such as byte-compiling).
SPANS_CYCLE = 1


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Worker:
    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.out = Path(cfg["out"])
        self.tracer = spans.Tracer() if cfg["trace"] else None
        if self.tracer:
            spans.install(self.tracer)
        schema_path = cfg["schema"] or cli.default_schema_path()
        self.schema = TagSchema.load(schema_path)
        self.rules = RuleSet.load(cfg["rules"], self.schema)
        self.failed: list[str] = []

    def phase(self, name):
        return self.tracer.phase(name) if self.tracer else nullcontext()

    def step(self, name, fn):
        """Run one operation; a failure is recorded and returns None."""
        try:
            return fn()
        except Exception:  # the benchmark must report, not stop
            self.failed.append(name)
            sys.stderr.write(f"step {name} failed:\n{traceback.format_exc()}")
            return None

    def round(self, cycle: int) -> dict:
        self.failed = []
        if self.tracer:
            self.tracer.reset()
            self.tracer.cycle = cycle
            self.tracer.keep = cycle == SPANS_CYCLE
        res = self.train_round() if self.cfg["role"] == "train" else self.tag_round()
        res["failed"] = self.failed
        if self.tracer:
            res["trace"] = self.tracer.snapshot()
        return res

    # -- train: what `greektag train` does ------------------------------------

    def train_round(self) -> dict:
        cfg = self.cfg
        res = {}
        cals = [calibrate()]

        def train():
            with self.phase("bench.train"):
                t0 = perf()
                corpus = text.load_annotated_corpus(cfg["corpus"], self.schema)
                m = model.train(corpus, self.rules, self.schema)
                m.save(cfg["model"])
                res["train_s"] = perf() - t0
            res["tokens"] = sum(len(s) for s in corpus)
            res["model_sha"] = sha(cfg["model"])
            return corpus

        corpus = self.step("train", train)
        cals.append(calibrate())

        def cv():
            with self.phase("bench.cv"):
                t0 = perf()
                acc = cli.cross_validation(corpus, self.rules, self.schema)
                res["cv_s"] = perf() - t0
            res["cv_accuracy"] = acc

        if corpus is None:
            self.failed.append("cv")
        else:
            self.step("cv", cv)
        cals.append(calibrate())
        res["cal"] = {"train": (cals[0] + cals[1]) / 2, "cv": (cals[1] + cals[2]) / 2}
        return res

    # -- tag, count and chisq: what `greektag tag/count/chisq` do -------------

    def tag_pass(self, m, label: str, beam: int, latencies: bool = False) -> dict:
        """tokenize + tag_corpus + save_annotated_corpus over every text.

        The calibration loop runs before each text and after the last, so
        each text's time (and, with ``latencies``, each of its
        ``tag_sequence`` times) comes with the loop time around it."""
        outdir = self.out / label
        outdir.mkdir(exist_ok=True)
        texts, hashes = [], []
        orig = decode.tag_sequence
        if latencies:
            def timed(mdl, toks, beam=0):
                t = perf()
                r = orig(mdl, toks, beam)
                texts[-1]["lat"].append(perf() - t)
                return r
            decode.tag_sequence = timed
        try:
            before = calibrate()
            for i, path in enumerate(self.cfg["texts"]):
                raw = Path(path).read_text(encoding="utf-8")
                dest = outdir / f"{Path(path).stem}.tag"
                texts.append({"lat": []})

                def one():
                    t0 = perf()
                    tagged = decode.tag_corpus(m, text.tokenize(raw), beam=beam)
                    text.save_annotated_corpus(dest, tagged)
                    return perf() - t0, sum(len(s) for s in tagged)

                with self.phase(f"bench.tag_{label}"):
                    r = self.step(f"{label}:{i}", one)
                after = calibrate()
                if r is None:
                    texts.pop()
                else:
                    texts[-1].update(s=r[0], tokens=r[1], cal=(before + after) / 2)
                    hashes.append(sha(dest))
                before = after
        finally:
            decode.tag_sequence = orig
        return {"texts": texts, "tokens": sum(t["tokens"] for t in texts), "sha": hashes}

    def tag_round(self) -> dict:
        cfg = self.cfg
        res = {}
        with self.phase("bench.load"):
            m = self.step("load", lambda: model.Model.load(cfg["model"]))
        if m is None:
            self.failed.extend(f"{p}:{i}" for p in ("cold", "warm", "beam")
                               for i in range(len(cfg["texts"])))
            self.failed.extend(("count", "chisq"))
            return res
        res["cold"] = self.tag_pass(m, "cold", 0)
        res["warm"] = self.tag_pass(m, "warm", 0, latencies=True)
        res["beam"] = self.tag_pass(m, "beam", cfg["beam"])
        before = calibrate()
        tagged = sorted((self.out / "warm").glob("*.tag"))
        counts_csv = self.out / "counts.csv"
        report_prefix = self.out / "report"

        def count():
            with self.phase("bench.count"):
                t0 = perf()
                group = []
                for path in tagged:
                    pairs = []
                    for seq in text.load_annotated_corpus(path, self.schema):
                        pairs.extend(zip(seq.tokens, seq.gold_tags))
                    group.append(stylometry.count_categories(pairs, path.stem))
                stylometry.save_counts_csv(counts_csv, group)
                res["count_s"] = perf() - t0

        def chisq():
            with self.phase("bench.chisq"):
                t0 = perf()
                group = stylometry.load_counts_csv(counts_csv)
                report = stylometry.run_test(group)
                table, csv_text = stylometry.render_report(report)
                Path(f"{report_prefix}.txt").write_text(table, encoding="utf-8", newline="\n")
                Path(f"{report_prefix}.csv").write_text(csv_text, encoding="utf-8", newline="\n")
                res["chisq_s"] = perf() - t0
            res["report"] = {
                "texts": list(report.texts), "categories": list(report.categories),
                "chi2": report.chi2.tolist(), "alpha": list(report.alpha),
                "mu": report.mu, "sigma": report.sigma,
                "rho": None if report.rho is None else list(report.rho),
                "flagged": list(report.flagged),
                "dropped": list(report.dropped_categories),
            }
            res["counts_sha"] = sha(counts_csv)

        self.step("count", count)
        if "count_s" in res:
            self.step("chisq", chisq)
        else:
            self.failed.append("chisq")
        res["cal"] = {"count": (before + calibrate()) / 2}
        res["count_tokens"] = res["warm"]["tokens"]
        return res


def main() -> None:
    cfg = json.loads(sys.stdin.readline())
    worker = Worker(cfg)
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "round":
            print(json.dumps(worker.round(cmd["cycle"])), flush=True)
        elif cmd["op"] == "quit":
            if worker.tracer:
                worker.tracer.dump(Path(cfg["out"]) / f"spans-{cfg['role']}.jsonl")
            print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
            return


if __name__ == "__main__":
    main()
