"""Result artifacts: every paper table is saved as markdown + JSON under
``results/`` so EXPERIMENTS.md can reference reproducible numbers."""
from __future__ import annotations

import json
from pathlib import Path

import pandas as pd

__all__ = ["save_table", "format_markdown", "pivot_metric"]


def format_markdown(df: pd.DataFrame, floatfmt: str = "{:.3f}") -> str:
    d = df.copy()
    for c in d.columns:
        if d[c].dtype.kind == "f":
            d[c] = d[c].map(lambda x: floatfmt.format(x))
    header = "| " + " | ".join(map(str, d.columns)) + " |"
    sep = "|" + "|".join("---" for _ in d.columns) + "|"
    rows = ["| " + " | ".join(map(str, r)) + " |" for r in d.itertuples(index=False)]
    return "\n".join([header, sep, *rows])


def pivot_metric(
    df: pd.DataFrame, metric: str, index: str | list[str] = "graph", columns: str = "label"
) -> pd.DataFrame:
    """Reshape tidy trial results into the paper's graph × algorithm layout."""
    return df.pivot_table(index=index, columns=columns, values=metric).reset_index()


def save_table(df: pd.DataFrame, name: str, results_dir: str | Path = "results", title: str = "") -> Path:
    out = Path(results_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(df.to_json(orient="records", indent=1))
    md = (f"# {title}\n\n" if title else "") + format_markdown(df) + "\n"
    path = out / f"{name}.md"
    path.write_text(md)
    return path
