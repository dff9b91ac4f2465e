"""Outside-in tracing for the benchmark.

The package is never edited: :class:`Tracer` replaces the public functions
listed in :data:`TRACED` on their modules (and ``AdamState.update`` on its
class) with wrappers that record one span per call, and puts the originals
back on exit. Calls that a module makes through its own globals or through
``ad.<op>`` resolve to the replaced attributes, so nested layers are seen.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the timed operation it belongs to (an int) or a
set-up label such as ``"setup-0"``. Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

from singsynth import autodiff, checkpoint, corpus, features, model, score, \
    training

# (owner, attribute, span name). ``training.forward_train`` is the name the
# trainer calls; ``model.forward_train`` is patched too so both spellings of
# the same function record the same span.
TRACED = (
    (training, "train", "training.train"),
    (training, "assemble_batch", "training.assemble_batch"),
    (training, "batch_loss", "training.batch_loss"),
    (training.AdamState, "update", "training.adam_update"),
    (training, "params_from_checkpoint", "training.params_from_checkpoint"),
    (training, "forward_train", "model.forward_train"),
    (model, "forward_train", "model.forward_train"),
    (model, "encode", "model.encode"),
    (model, "predict_durations", "model.predict_durations"),
    (model, "length_regulate", "model.length_regulate"),
    (model, "decode", "model.decode"),
    (model, "predicted_durations", "model.predicted_durations"),
    (model, "synthesize_with_durations", "model.synthesize_with_durations"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff, "scaled_dot_attention", "autodiff.attention"),
    (autodiff, "softmax", "autodiff.softmax"),
    (autodiff, "conv1d", "autodiff.conv1d"),
    (autodiff, "layer_norm", "autodiff.layer_norm"),
    (score, "parse_score", "score.parse"),
    (score, "score_to_tokens", "score.tokens"),
    (features, "save_features", "features.save"),
    (corpus, "generate_corpus", "corpus.generate_corpus"),
    (corpus, "oracle_sing", "corpus.oracle_sing"),
    (corpus, "load_corpus_items", "corpus.load_corpus_items"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
)

CORPUS_GENERATION = ("corpus.generate_corpus", "corpus.oracle_sing")


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def children_of(spans) -> dict[int, list[int]]:
    """Indices of each span's direct children, keyed by the parent's index."""
    kids = defaultdict(list)
    for index, span in enumerate(spans):
        kids[span[3]].append(index)
    return kids


def self_time(spans, index: int, children: dict,
              count_child=lambda name: True) -> float:
    """Duration of ``spans[index]`` minus the part its direct children cover.

    Only children whose name passes ``count_child`` are subtracted.
    """
    _, start, end, _, _ = spans[index]
    kids = [(max(spans[k][1], start), min(spans[k][2], end))
            for k in children.get(index, ()) if count_child(spans[k][0])]
    return (end - start) - covered(kids)


def graph_size(roots) -> tuple[int, int]:
    """Nodes reachable through ``.parents`` from ``roots``, and the bytes of
    their values with each underlying buffer counted once."""
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        owner = node.value
        while owner.base is not None:
            owner = owner.base
        buffers[id(owner)] = owner.nbytes
        stack.extend(parent for parent, _ in node.parents)
    return len(seen), sum(buffers.values())


class Tracer:
    """Records spans and per-op counts while installed (``with tracer:``)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None             # the op new spans belong to
        self._stack: list[int] = []
        self.roots: list = []      # outputs of the current op, sized at its end
        self._saved: list = []

    # -- op boundaries -----------------------------------------------------

    def end_op(self) -> None:
        """Close the current op: size the graph its outputs hold, then move
        on to the next integer op id."""
        if self.roots:
            nodes, nbytes = graph_size(self.roots)
            self.roots.clear()
            self.counts[self.op]["autodiff.graph_nodes"] += nodes
            self.counts[self.op]["autodiff.graph_bytes"] += nbytes
        if isinstance(self.op, int):
            self.op += 1

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, fn, name):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            op = self.op
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, op)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# Counts taken at layer boundaries, after the span has closed.

def _count_regulated(tracer, args, result):
    counts = tracer.counts[tracer.op]
    counts["model.phonemes"] += args[0].shape[0]
    counts["model.frames"] += result.shape[0]


def _count_fill(tracer, args, result):
    counts = tracer.counts[tracer.op]
    counts["training.valid_frames"] += int(result.n_frames.sum())
    counts["training.padded_frames"] += result.mgc.shape[0] * result.mgc.shape[1]


def _keep_root(tracer, args, result):
    if isinstance(result, model.DecoderOutput):
        tracer.roots.extend((result.mgc, result.bap, result.logf0,
                              result.vuv_prob))
    elif isinstance(result, tuple):   # batch_loss: (total, components)
        tracer.roots.append(result[0])
    else:
        tracer.roots.append(result)


_OBSERVERS = {
    "model.length_regulate": _count_regulated,
    "training.assemble_batch": _count_fill,
    "model.decode": _keep_root,
    "model.predict_durations": _keep_root,
    "training.batch_loss": _keep_root,
}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run

# metric name -> span name whose per-op total duration it reports (ms)
SPAN_MS = {
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.attention_ms": "autodiff.attention",
    "autodiff.softmax_ms": "autodiff.softmax",
    "autodiff.conv1d_ms": "autodiff.conv1d",
    "autodiff.layer_norm_ms": "autodiff.layer_norm",
    "model.encode_ms": "model.encode",
    "model.predict_durations_ms": "model.predict_durations",
    "model.length_regulate_ms": "model.length_regulate",
    "model.decode_ms": "model.decode",
    "training.batch_loss_ms": "training.batch_loss",
    "training.adam_update_ms": "training.adam_update",
    "training.assemble_batch_ms": "training.assemble_batch",
    "score.parse_ms": "score.parse",
    "score.tokens_ms": "score.tokens",
    "features.save_ms": "features.save",
}
# metric name -> span name whose per-op call count it reports
SPAN_CALLS = {
    "autodiff.attention_calls": "autodiff.attention",
    "model.encode_calls": "model.encode",
}
# metrics that are per-op counts recorded at a layer boundary
OP_COUNTS = ("autodiff.graph_nodes", "model.frames", "model.phonemes")
# metric name -> span name whose per-set-up total duration it reports (ms)
SETUP_MS = {
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops, setups) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced ``ops`` (ints) and the
    ``setups`` labels. Returns ``(metrics, bases)``, where ``bases`` gives
    the denominators behind each ratio."""
    per_op: dict = {op: defaultdict(float) for op in ops}
    calls: dict = {op: defaultdict(int) for op in ops}
    per_setup: dict = {label: defaultdict(float) for label in setups}
    generation: dict = {label: [] for label in setups}
    spans = tracer.spans
    children = children_of(spans)
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op in per_op:
            per_op[op][name] += end - start
            calls[op][name] += 1
            if name == "training.batch_loss":
                per_op[op]["losses.assembly"] += self_time(
                    spans, index, children, lambda kid: kid.startswith("model."))
        elif op in per_setup:
            per_setup[op][name] += end - start
            if name in CORPUS_GENERATION:
                generation[op].append((start, end))

    metrics = {}
    for metric, span in SPAN_MS.items():
        metrics[metric] = 1e3 * _median([per_op[op][span] for op in ops])
    for metric, span in SPAN_CALLS.items():
        metrics[metric] = _median([calls[op][span] for op in ops])
    for metric in OP_COUNTS:
        metrics[metric] = _median([tracer.counts[op][metric] for op in ops])
    metrics["autodiff.graph_mb"] = _median(
        [tracer.counts[op]["autodiff.graph_bytes"] for op in ops]) / 1e6
    metrics["losses.assembly_ms"] = 1e3 * _median(
        [per_op[op]["losses.assembly"] for op in ops])
    valid = sum(tracer.counts[op]["training.valid_frames"] for op in ops)
    padded = sum(tracer.counts[op]["training.padded_frames"] for op in ops)
    metrics["training.batch_fill"] = valid / padded if padded else 0.0
    metrics["corpus.generate_s"] = _median(
        [covered(generation[label]) for label in setups])
    for metric, span in SETUP_MS.items():
        metrics[metric] = 1e3 * _median(
            [per_setup[label][span] for label in setups])
    bases = {"training.batch_fill": {"valid_frames": valid,
                                     "padded_frames": padded},
             "traced_ops": len(ops), "setups": len(setups)}
    return metrics, bases
