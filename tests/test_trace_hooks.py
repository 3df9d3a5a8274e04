"""The benchmark's trace wrappers still find every name they wrap.

perfbench/spans.py wraps package functions and methods by name from
outside the package, so renaming or deleting one of them would break
``perfbench/run.py --trace 1`` without failing any other test.  The
wrappers are installed in a subprocess so they cannot leak into the rest
of the suite; perfbench/ is only read.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import racah_dunkl
from racah_dunkl import cli
import spans

tracer = spans.Tracer()
spans.install(tracer)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["verify", "racah", "--n", "3", "--kmax", "1"]))
    codes.append(cli.main(["verify", "ck", "--n", "3", "--kmax", "2"]))
    # the tridiagonal check applies C_23 to each module polynomial: operators.apply
    codes.append(cli.main(["connect", "--n", "3", "--k", "2", "--from", "1,2,3", "--to", "2,3,1"]))
params = racah_dunkl.ParameterSet.default(4)
start = racah_dunkl.Chain.from_order((1, 2, 3, 4))
goal = racah_dunkl.Chain.from_order((2, 4, 3, 1))
edges = racah_dunkl.connection_pipeline(params, 2, start, goal)
product = edges[0]
for w in edges[1:]:
    product = product.compose(w)
print(json.dumps({{"codes": codes, "metrics": spans.layer_metrics(tracer)}}))
"""

LAYERS = (
    "linalg.matmul",
    "linalg.solve",
    "linalg.rank",
    "operators.apply",
    "operators.materialize",
    "relations.workspace",
    "harmonics.tower",
    "connection.matrix",
    "connection.compose",
)


def test_every_traced_layer_is_reached():
    script = CHILD.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    metrics = result["metrics"]
    missed = [layer for layer in LAYERS if not metrics[f"{layer}.calls"] > 0]
    assert missed == []


SWEEP_CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from racah_dunkl import cli
import spans

tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", {suite!r}, "--n", "3", "--kmax", "2"])
print(json.dumps({{"code": code, "metrics": spans.layer_metrics(tracer)}}))
"""


def traced_materializations(suite: str) -> int:
    """operators.materialize.calls of ``verify suite --n 3 --kmax 2``, run in a child."""
    script = SWEEP_CHILD.format(
        src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), suite=suite
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return result["metrics"]["operators.materialize.calls"]


@pytest.mark.parametrize("suite, materializations", [
    # per subset of {1, 2, 3}: the primitives A0, J+ and J-, on A's variables
    pytest.param("su11", 7 * 3, id="su11"),
    # per subset, on A's variables: C_A and its D_A, |x_A|^2 and Lap_A, and
    # the full Laplacian's moves inside A (for A = {1, 2, 3}, the Laplacian)
    pytest.param("lemma1", 7 * 5, id="lemma1"),
])
def test_the_degree_changing_sweeps_materialize_through_the_traced_name(
    suite, materializations
):
    # su11 and lemma1 take each operator through the name the tracer
    # rebinds: a closure or table in relations that kept the function
    # itself would leave their top-level materializations untraced
    assert traced_materializations(suite) == materializations > 0


@pytest.mark.parametrize("suite, materializations", [
    # per subset of {1, 2, 3}: C_A and its D_A, |x_A|^2 and Lap_A
    ("lemma2", 7 * 4),
    # per pair: C_ij and its D_ij, |x_ij|^2 and Lap_ij
    ("drinfeld-kohno", 3 * 4),
    # the blocks {1}, {2}, {3}: C_A of their 7 unions, each with its parts
    ("embedding", 7 * 4),
])
def test_the_workspace_sweeps_materialize_through_the_traced_name(suite, materializations):
    # the generator table builds each C_A once, on its first request,
    # through the name the tracer rebinds
    assert traced_materializations(suite) == materializations
