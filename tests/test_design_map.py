"""DESIGN.md names exactly the modules under ``src/repro`` and the paper
tables of the registry, and the run settings it and EXPERIMENTS.md state
are the ones the code defines."""
import re
from pathlib import Path

from repro.graphs import streams
from repro.harness.config import BENCH
from repro.harness.experiments import HEADER
from repro.harness.tables import TABLES

ROOT = Path(__file__).parent.parent
DESIGN = (ROOT / "DESIGN.md").read_text()


def _section(title: str) -> str:
    return DESIGN.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def test_design_module_map_matches_source_tree():
    listed = set(re.findall(r"`(src/repro/[\w/]+\.py)`", _section("2. Module map")))
    on_disk = {
        p.relative_to(ROOT).as_posix()
        for p in (ROOT / "src" / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }
    assert listed == on_disk


def _stated(text: str, name: str) -> list[float]:
    """Every value ``text`` states for ``name``: ``α = 3e-4`` gives 3e-4 for
    ``α``, ``M = 5% of`` 0.05 for ``M``, ``15% for 4-cliques`` 0.15 for
    ``4-clique``."""
    if name == "M":
        return [float(x) / 100 for x in re.findall(r"M = (\d+) ?% of", text)]
    if name == "4-clique":
        return [float(x) / 100 for x in re.findall(r"(\d+) ?% for (?:the )?4-clique", text)]
    return [float(x) for x in re.findall(rf"{name}\s*=\s*([\d.]+(?:e-?\d+)?)", text)]


def test_docs_state_the_run_settings():
    """DESIGN.md §4's reduced-scale row, §5 and EXPERIMENTS.md's header
    state the deletion parameters ``make_stream`` defaults to and the
    reservoir ratios of the tables, and §5 lists the registry in order."""
    section5 = _section("5. Table index")
    assert re.findall(r"`(table\d\d)`", section5) == list(TABLES)
    assert TABLES["table07"].cfg["m_ratio"] == TABLES["table10"].cfg["m_ratio"]
    settings = {
        "α": streams.ALPHA,
        "β_m": streams.BETA_M,
        "β_l": streams.BETA_L,
        "M": BENCH.m_ratio,
        "4-clique": TABLES["table07"].cfg["m_ratio"],
    }
    # §4's row for the paper's M, α and β_m: its "built here" cell states
    # ours first and the paper's only in the reasons after them.
    rows = _section("4. Substitutions").splitlines()
    built = next(r for r in rows if r.startswith("| M = 200,000")).split(" | ")[1]
    for name, value in settings.items():
        assert _stated(built, name)[0] == value, f"DESIGN.md §4: {name}"
    for doc, text, names in (
        ("DESIGN.md §5", section5, ["α", "β_m", "β_l", "M"]),
        ("EXPERIMENTS.md header", HEADER, list(settings)),
    ):
        for name in names:
            values = _stated(text, name)
            assert values and set(values) == {settings[name]}, f"{doc}: {name} {values}"
