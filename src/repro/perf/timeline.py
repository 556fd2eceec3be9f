"""ASCII timeline (Gantt) rendering for pipeline schedules.

Turns a :class:`repro.core.PipelineSchedule` into the kind of per-stream
timeline the paper's Fig. 12 distills — useful in examples and for
eyeballing what overlaps with what.
"""

from __future__ import annotations

from typing import List

from .. import check
from ..core.schedule import PipelineSchedule

__all__ = ["render_timeline"]


def render_timeline(schedule: PipelineSchedule, width: int = 72) -> str:
    """Render one line per stream; task spans are drawn with their name.

    Each column represents ``makespan / width`` seconds; a task shorter
    than one column still gets one character so nothing disappears.
    """
    check.count("width", width, low=10)
    if not schedule.tasks:
        return "(empty schedule)"
    makespan = schedule.makespan
    if makespan <= 0:
        return "(zero-length schedule)"
    streams: List[str] = []
    for t in schedule.tasks:
        if t.stream not in streams:
            streams.append(t.stream)
    label_w = max(len(s) for s in streams) + 1
    scale = width / makespan
    lines = []
    for stream in streams:
        row = [" "] * width
        for t in schedule.tasks:
            if t.stream != stream:
                continue
            c0 = int(schedule.start[t.name] * scale)
            c1 = max(c0 + 1, int(schedule.finish[t.name] * scale))
            c1 = min(c1, width)
            span = c1 - c0
            name = t.name.split("/")[-1]
            text = (name[: span - 2] + "|") if span > 2 else "#" * span
            block = text.ljust(span, "=")[:span]
            for i, ch in enumerate(block):
                row[c0 + i] = ch
        lines.append(f"{stream.ljust(label_w)}|{''.join(row)}|")
    header = f"{'':{label_w}} 0{' ' * (width - 12)}{makespan * 1e3:8.2f} ms"
    return "\n".join([header] + lines)
