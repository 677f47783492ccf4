"""The "same outputs" gate: sha256 digests of the files and reports that
the command line writes, recorded once and compared on every run, so a
change that should keep behaviour shows any output it moves.

The outputs:

- the default `gen-synth` corpus (200 sentences, seed 0) trained in each
  of the three modes with the default settings: the model file and the
  report;
- a BIOES-3 `gen-synth --noise-rate 0.1 --seed 3` corpus trained in `crf`
  and `mcrf-train` for 200 iterations: the model file and the report;
- the tag-bioes10 benchmark fixtures at seed 101, built by
  perfbench/workloads.py itself: the `predict --strategy retain`
  predictions and the `eval` report of both test files;
- `mcrf verify --json` at seeds 0, 3, 7, 101 and 5000.

The digests hold on the CI-pinned numpy==2.4.6 (and its OpenBLAS): the
engine's float sums follow numpy's and BLAS's order of operations, so
another build may move the last bits of a model file. A change that moves
an output on purpose records the new digest here and says why.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from mcrf.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN = {
    "synth/crf/model": "2ccff9a1816f3672358f4217595232b6efb71116d827def8874853c3caa689ba",
    "synth/crf/report": "bf64fdadb32100a5463cf0497acfe39927881b53b59efda7a8e62abf0c23206a",
    "synth/mcrf-decode/model": "9469d36fbea59e7c404b2ec9f97ec001887cb4490fd5617effcac0aa4c876376",
    "synth/mcrf-decode/report": "bf64fdadb32100a5463cf0497acfe39927881b53b59efda7a8e62abf0c23206a",
    "synth/mcrf-train/model": "26ccc4ed19fa15bd714346d19312c2c57e3b5778b3689142263b9ab46d9d4376",
    "synth/mcrf-train/report": "43568b734683065776a616a583f6588e6a9ab9a076ac19f8609f4bfc0ee138d8",
    "bioes3/crf/model": "603f794aa808a0e22eeb9cfa7075f39bbc7a41be3f27d63b7b4d01ae4d81da5d",
    "bioes3/crf/report": "7dc19cc829866eda63afbb47ef1a79639bd433964f7a9ef97c8980cb7c03a284",
    "bioes3/mcrf-train/model": "2f18fc0e3a83518e2dee92b70f1089de924cc94d9a2d288403667a3665b2fb08",
    "bioes3/mcrf-train/report": "549f6775268038c4e233d1efeca034f48db6e2a5e04b195e75aadab5cd39a566",
    "tag-bioes10/pred0": "98dfbd570215f590603a42a47f595d57b749777f117f1db70d0b1f5e34dcbdac",
    "tag-bioes10/eval0": "f3021f4cec0b7e0bc20f6a9dcf70ed43ccdce40d97b9e4ee7a36cacb9df2f610",
    "tag-bioes10/pred1": "4e591c4ceb4324bff4ed25f71f3f4249f293bf94d02caee0d76b636dd3e1529c",
    "tag-bioes10/eval1": "04acb25ee0eb6dd6aecd67989fb8e3c1e3b7e1cded12c6f094e74c465f868849",
    "verify/0": "9bcdadaa50b55efd9943dad92ab629ded39d452554ffbf713e16a1d256eb5595",
    "verify/3": "f873569051dd6773508ae7247ddc2a57c371f6e42fae5779ac16f1ef294c5db8",
    "verify/7": "f24f841087ce12f9dd5d3c6a2b7a87b149c39b5f72e2fdba3bfb5a6c55656131",
    "verify/101": "3226c66d92b86a267a7cccf7fa7bcb38b6f8fc8e9f8dd2374656f6789fd92ea3",
    "verify/5000": "5df6a1ce4ffc93d31dc97d3610de738596ecf9573ea9f39eef41fd45edeb464d",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trained(root: Path, name: str, gen: list[str], train: list[str], modes) -> dict[str, str]:
    prefix = str(root / name)
    _run(["gen-synth", *gen, "--out-prefix", prefix])
    digests = {}
    for mode in modes:
        model, report = root / f"{name}-{mode}.json", root / f"{name}-{mode}.tsv"
        _run([
            "train", "--data", f"{prefix}_train.conll", "--dev", f"{prefix}_dev.conll",
            *train, "--mode", mode, "--out", str(model), "--report", str(report),
        ])
        digests[f"{name}/{mode}/model"] = _digest(model.read_bytes())
        digests[f"{name}/{mode}/report"] = _digest(report.read_bytes())
    return digests


def outputs(root: Path) -> dict[str, str]:
    """Every gated output's digest, by name, written under root."""
    digests = _trained(root, "synth", [], [], ("crf", "mcrf-decode", "mcrf-train"))
    digests |= _trained(
        root, "bioes3",
        ["--scheme", "bioes", "--noise-rate", "0.1", "--seed", "3"],
        ["--scheme", "bioes", "--max-iterations", "200"],
        ("crf", "mcrf-train"),
    )
    (root / "tag").mkdir()
    workload = _workloads().TagBioes10(str(root / "tag"))
    workload.build(101)
    for part in range(workload.parts):
        workload.op(part)
        digests[f"tag-bioes10/pred{part}"] = _digest(Path(workload.pred_paths[part]).read_bytes())
        digests[f"tag-bioes10/eval{part}"] = _digest(workload.report.encode())
    for seed in (0, 3, 7, 101, 5000):
        digests[f"verify/{seed}"] = _digest(_run(["verify", "--json", "--seed", str(seed)]).encode())
    return digests


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def test_every_gated_output_is_produced(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest_is_unchanged(produced, name):
    assert produced[name] == GOLDEN[name]


if __name__ == "__main__":  # print the table for GOLDEN
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, value in outputs(Path(tmp)).items():
            print(f'    "{key}": "{value}",')
