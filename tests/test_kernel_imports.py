"""The in-process kernel path runs without pyspark.

Stream construction, ground truth, the kernels and WSD-L training never
start Spark, so importing them must not load pyspark (or the pandas and JVM
gateway it drags in). Spark is imported only by the trial fan-out, the table
command and Structured Streaming.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parents[1]
KERNEL_PATH = [
    "repro.exact.spark_counts",
    "repro.exact.incremental",
    "repro.graphs.streams",
    "repro.core.runner",
    "repro.harness.factory",
    "repro.harness.config",
    "repro.rl.train",
]
SPARK_MODULES = {
    "harness/trials.py",
    "harness/tables.py",
    "streaming/windowed.py",
}


def test_kernel_path_imports_no_pyspark():
    script = "\n".join(
        [*(f"import {m}" for m in KERNEL_PATH),
         "import sys", "assert 'pyspark' not in sys.modules, 'pyspark imported'"]
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


def _imports_pyspark(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n.split(".")[0] == "pyspark" for n in names):
            return True
    return False


def test_only_spark_modules_import_pyspark():
    pkg = SRC / "repro"
    found = {
        p.relative_to(pkg).as_posix() for p in pkg.rglob("*.py") if _imports_pyspark(p)
    }
    assert found == SPARK_MODULES
