"""Generate docs/api.md from module docstrings and ``__all__`` entries.

Run from the repository root:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import repro  # noqa: E402


def first_line(doc: str) -> str:
    return (doc or "").strip().splitlines()[0] if (doc or "").strip() else ""


def signature_of(obj) -> str:
    try:
        sig = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    return sig if len(sig) <= 100 else "(...)"


API_MD = os.path.join(REPO_ROOT, "docs", "api.md")


def render() -> str:
    """The full text of docs/api.md for the source tree as it stands."""
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — every public name",
        "(`__all__`) per module, with its summary line. See the module",
        "docstrings for the full discussion and paper cross-references.",
        "",
    ]
    modules = sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__,
                                                    prefix="repro.")
        if not info.name.endswith("__main__"))
    for name in modules:
        module = importlib.import_module(name)
        public = getattr(module, "__all__", [])
        if not public:
            continue
        lines.append(f"## `{name}`")
        lines.append("")
        summary = first_line(module.__doc__)
        if summary:
            lines.append(summary)
            lines.append("")
        for entry in public:
            obj = getattr(module, entry, None)
            doc = first_line(getattr(obj, "__doc__", ""))
            if inspect.isclass(obj):
                lines.append(f"- **class `{entry}`** — {doc}")
            elif callable(obj):
                lines.append(f"- **`{entry}{signature_of(obj)}`** — {doc}")
            else:
                lines.append(f"- **`{entry}`** — constant")
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> None:
    text = render()
    with open(API_MD, "w") as f:
        f.write(text)
    print(f"wrote {API_MD} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
