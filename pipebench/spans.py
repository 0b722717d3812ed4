"""Span tracer for the traced benchmark run.

The tracer replaces public functions of greektag's modules with timing
wrappers, at the attributes where the callers look them up at call time
(``decode`` calls ``_viterbi.viterbi`` through its module, ``cli``
imports ``train`` and ``tag_sequence`` by name, so those are wrapped on
``cli`` as well).  Nothing in ``src/`` changes.

Three kinds of wrapper:

* span: records (id, name, start, end, parent, self time); self time is
  the duration minus the time of the wrapped calls made inside it;
* leaf: for functions called millions of times (``chain_prob``): calls,
  time and errors are summed and charged to the enclosing span as child
  time, but no span is kept;
* counter: counts calls only and adds no child time
  (``Model.log_transition``, ``Model.lexical_probs``: their cache hits
  stay in the caller's self time).

Spans stay in memory; :meth:`Tracer.dump` writes them as JSON lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [id, child time]
        self.spans: list[tuple] = []
        self.keep = False  # whether finished spans are kept
        self.cycle = -1
        self._next_id = 1
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, errors]
        self.layer: dict[str, str] = {}
        self.extra: dict[str, float] = {}

    def _stat(self, name: str, layer: str) -> list:
        self.layer[name] = layer
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        for k in self.extra:
            self.extra[k] = 0.0

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "layer": dict(self.layer), "extra": dict(self.extra)}

    # -- wrappers -----------------------------------------------------------

    def _open(self) -> tuple[list, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else 0
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame, parent, perf()

    def _close(self, name, st, frame, parent, t0) -> None:
        t1 = perf()
        self.stack.pop()
        d = t1 - t0
        own = d - frame[1]
        st[0] += 1
        st[1] += d
        st[2] += own
        if self.stack:
            self.stack[-1][1] += d
        if self.keep:
            self.spans.append((self.cycle, frame[0], name, t0, t1, parent, own))

    def span(self, name: str, layer: str, fn):
        st = self._stat(name, layer)

        def wrapper(*args, **kwargs):
            frame, parent, t0 = self._open()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                self._close(name, st, frame, parent, t0)

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, layer: str, fn):
        st = self._stat(name, layer)
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st[3] += 1
                raise
            finally:
                d = perf() - t0
                st[0] += 1
                st[1] += d
                st[2] += d
                if stack:
                    stack[-1][1] += d

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, layer: str, fn):
        st = self._stat(name, layer)

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def phase(self, name: str):
        """A span around a step of the benchmark itself (layer "bench")."""
        st = self._stat(name, "bench")
        frame, parent, t0 = self._open()
        try:
            yield
        except BaseException:
            st[3] += 1
            raise
        finally:
            self._close(name, st, frame, parent, t0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for cycle, sid, name, t0, t1, parent, own in self.spans:
                fh.write(json.dumps({"cycle": cycle, "id": sid, "name": name,
                                     "start": t0, "end": t1, "parent": parent,
                                     "self": own}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every greektag module."""
    from greektag import _viterbi, cli, decode, model, morph, stylometry, tags, text

    def patch(owner, attr, wrapper_kind, name, layer):
        fn = getattr(owner, attr)
        setattr(owner, attr, getattr(tracer, wrapper_kind)(name, layer, fn))

    for attr in ("tokenize", "load_annotated_corpus", "save_annotated_corpus"):
        patch(text, attr, "span", f"text.{attr}", "text")
    patch(tags.TransitionStats, "__init__", "span", "tags.TransitionStats", "tags")
    patch(tags.TransitionStats, "chain_prob", "leaf", "tags.chain_prob", "tags")
    patch(morph, "lexical_prob", "span", "morph.lexical_prob", "morph")
    patch(morph, "train_lexicon", "span", "morph.train_lexicon", "morph")
    patch(model, "train", "span", "model.train", "model")
    patch(model, "fit_interpolation", "span", "model.fit_interpolation", "model")
    patch(model.Model, "save", "span", "model.Model.save", "model")
    load = model.Model.__dict__["load"].__func__
    model.Model.load = classmethod(tracer.span("model.Model.load", "model", load))
    patch(model.Model, "log_transition", "counter", "model.log_transition", "model")
    patch(model.Model, "lexical_probs", "counter", "model.lexical_probs", "model")
    patch(decode, "tag_corpus", "span", "decode.tag_corpus", "decode")
    patch(decode, "tag_sequence", "span", "decode.tag_sequence", "decode")
    for attr in ("count_categories", "run_test", "render_report",
                 "save_counts_csv", "load_counts_csv"):
        patch(stylometry, attr, "span", f"stylometry.{attr}", "stylometry")
    patch(cli, "cross_validation", "span", "cli.cross_validation", "cli")
    # cross_validation's own calls; the work is the model's and decoder's
    patch(cli, "train", "span", "cli.train", "model")
    patch(cli, "tag_sequence", "span", "cli.tag_sequence", "decode")

    kernel = _viterbi.viterbi
    exact = tracer.span("viterbi.exact", "viterbi", kernel)
    beamed = tracer.span("viterbi.beam", "viterbi", kernel)
    tracer.extra["viterbi.states"] = 0.0

    def viterbi(counts, adims, bdims, off, inc, beam=0):
        tracer.extra["viterbi.states"] += float((bdims * counts).sum())
        return (beamed if beam else exact)(counts, adims, bdims, off, inc, beam)

    _viterbi.viterbi = viterbi
