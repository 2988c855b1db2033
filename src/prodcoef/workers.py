"""The one reading of a `--threads` value as a worker count."""

from __future__ import annotations

import os

from .errors import ValidationError


def worker_count(threads: int, jobs: int) -> int:
    """Workers to run `jobs` independent jobs on: `threads`, where 0
    means one per CPU, capped at the number of jobs and at least 1."""
    if threads < 0:
        raise ValidationError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        threads = os.cpu_count() or 1
    return max(1, min(threads, jobs))
