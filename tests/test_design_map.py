"""DESIGN.md §2's module map names exactly the modules under ``src/repro``."""
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_design_module_map_matches_source_tree():
    design = (ROOT / "DESIGN.md").read_text()
    section = design.split("## 2. Module map", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(src/repro/[\w/]+\.py)`", section))
    on_disk = {
        p.relative_to(ROOT).as_posix()
        for p in (ROOT / "src" / "repro").rglob("*.py")
        if p.name != "__init__.py"
    }
    assert listed == on_disk
