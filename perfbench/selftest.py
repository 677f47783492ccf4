"""Self-tests for the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

The last test runs every workload's traced run twice (about two minutes,
most of it train-bio3). The file is not named test_*.py, so the package's
own pytest run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import mcrf  # noqa: E402
import workloads  # noqa: E402
from mcrf import crf, data, encoder, masking, postproc, schemes, training  # noqa: E402
from tracer import MCRF_LAYERS, Tracer, metric_units, self_times  # noqa: E402

COUNT_STATS = ("calls", "sentences", "tokens", "paths", "changed", "bytes", "reuse_ratio")


def _same(a, b) -> bool:
    """Exact equality, bit for bit on arrays, through lists and dataclasses."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return _same(list(vars(a).values()), list(vars(b).values()))
    return a == b


def _mcrf_attributes() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "mcrf" or name.startswith("mcrf.")
        for attr, value in vars(module).items()
    }


def _run_bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TracerTests(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(0)
        self.tagset = schemes.build_tagset("bioes", ["A", "B"])
        d = self.tagset.size
        self.emissions = rng.normal(size=(5, d))
        self.trans = crf.TransitionMatrix(rng.normal(size=(d, d)), rng.normal(size=d))
        self.gold = [0, 1, 2, 3, 0]
        self.spec = masking.MaskSpec(rules=schemes.illegal_transition_set(self.tagset))

    def calls(self):
        """(module, function name, args) for a sample of traced functions."""
        batch = [(self.emissions, self.gold), (self.emissions[:2], [4, 0])]
        weights = encoder.EncoderWeights.init(6, 3, self.tagset.size, np.random.default_rng(1))
        corpus = os.path.join(self.tmp, "c.conll")
        data.write_conll(corpus, [data.LabeledSentence(["a", "b"], [1, 3])], self.tagset)
        return [
            (crf, "viterbi", (self.emissions, self.trans)),
            (crf, "loss_and_gradients", (batch, self.trans)),
            (crf, "nll_loss", (batch, self.trans)),
            (crf, "brute_force_best", (self.emissions[:3], self.trans)),
            (crf, "brute_force_loss_and_gradients", (batch[1:], self.trans)),
            (schemes, "illegal_transition_set", (self.tagset,)),
            (masking, "constrained_viterbi", (self.emissions, self.trans, self.spec)),
            (masking, "apply_mask", (self.trans, self.spec)),
            (encoder, "encode", ([2, 3, 4], weights)),
            (postproc, "repair_tags", ([2, 0, 3], self.tagset, "retain")),
            (data, "read_conll", (corpus, self.tagset)),
        ]

    def test_wrapped_call_returns_what_the_unwrapped_call_returns(self):
        with tempfile.TemporaryDirectory() as self.tmp:
            for module, name, args in self.calls():
                original = getattr(module, name)
                expected = original(*args)
                with Tracer() as tracer:
                    wrapped = getattr(module, name)
                    self.assertIsNot(wrapped, original, name)
                    got = wrapped(*args)
                self.assertTrue(_same(expected, got), name)
                self.assertGreaterEqual(len(tracer.spans), 1, name)

    def test_every_importing_namespace_is_patched(self):
        original = crf.viterbi
        with Tracer():
            self.assertIsNot(crf.viterbi, original)
            for module in (mcrf, mcrf.cli, mcrf.masking, mcrf.training, mcrf.verification):
                self.assertIs(module.viterbi, crf.viterbi)
            self.assertIs(mcrf.training.loss_and_gradients, crf.loss_and_gradients)

    def test_tracer_leaves_no_patched_attribute_behind(self):
        before = _mcrf_attributes()
        with Tracer():
            crf.viterbi(self.emissions, self.trans)
        with self.assertRaises(ValueError):
            with Tracer():
                crf.viterbi(np.zeros((0, 3)), self.trans)
        after = _mcrf_attributes()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_nested_calls_count_and_self_time(self):
        with Tracer() as tracer:
            masking.constrained_viterbi(self.emissions, self.trans, self.spec)
        parents = {span[0]: span[3] for span in tracer.spans}
        self.assertEqual(tracer.spans[0][0], "masking.constrained_viterbi")
        self.assertEqual(parents["crf.viterbi"], 0)
        self.assertEqual(parents["masking.guard_threshold"], 0)
        metrics = tracer.metrics()
        self.assertEqual(metrics["crf.viterbi.tokens"], 5)
        self.assertEqual(set(metrics), set(metric_units()))
        total = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(
            sum(v for k, v in metrics.items() if k.endswith(".self_s")), total, places=9
        )

    def test_self_time_subtracts_direct_children(self):
        spans = [
            ("a", 0.0, 10.0, -1, 0),
            ("b", 1.0, 4.0, 0, 0),
            ("c", 2.0, 3.0, 1, 0),
            ("b", 5.0, 6.0, 0, 0),
        ]
        self.assertEqual(self_times(spans), {"a": 6.0, "b": 3.0, "c": 1.0})


class CheckTests(unittest.TestCase):
    def test_tag_check_catches_an_illegal_decode(self):
        config = data.SyntheticConfig(
            entity_types=("PER", "LOC"), scheme=schemes.Scheme.BIOES, sentences=20,
            min_length=3, max_length=6,
        )
        tagset, sents = data.generate_synthetic(config, 0)
        model, _ = training.train(
            sents, sents, training.TrainConfig(
                mode="mcrf-train", max_epochs=0, max_iterations=2, eval_every=2,
            ),
            tagset,
        )
        i, j = sorted(schemes.illegal_transition_set(tagset).omega)[0]
        with tempfile.TemporaryDirectory() as tmp:
            workload = workloads.TagBioes10(tmp)
            data.save_model(workload.model_path, model)
            data.write_conll(workload.test_paths[0], sents, tagset)
            self.assertIsInstance(workload._decode(0), list)
            decode = workloads.constrained_viterbi
            workloads.constrained_viterbi = lambda *a, **k: [i, j] + decode(*a, **k)[2:]
            try:
                problem = workload._decode(0)
            finally:
                workloads.constrained_viterbi = decode
        self.assertIsInstance(problem, str)
        self.assertIn("illegal path", problem)


class BenchmarkTests(unittest.TestCase):
    def test_declared_metrics_match_what_runs_report(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        expected = dict(metric_units())
        expected.update({"bench.untraced_op_s": "s", "bench.traced_op_s": "s"})
        self.assertEqual(per_layer, expected)
        self.assertEqual(len(MCRF_LAYERS), len({layer.name for layer in MCRF_LAYERS}))
        result = _run_bench("verify", trace=0)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
        )

    def test_two_traced_runs_give_identical_counts(self):
        for workload in ("verify", "tag-bioes10", "train-bio3"):
            first, second = _run_bench(workload, 1), _run_bench(workload, 1)
            for result in (first, second):
                self.assertTrue(result["correct"], workload)
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if k.rsplit(".", 1)[1] in COUNT_STATS}
                for r in (first, second)
            ]
            self.assertEqual(counts[0], counts[1], workload)
            if workload == "train-bio3":
                self.assertEqual(counts[0]["crf.loss_and_gradients.calls"], 1000)
                self.assertEqual(counts[0]["training.train.calls"], 1)


if __name__ == "__main__":
    unittest.main()
