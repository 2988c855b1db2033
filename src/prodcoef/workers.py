"""The one reading of a `--threads` value as a worker count, and the one
way the package runs work on forked processes."""

from __future__ import annotations

import os
import select
import signal
import tempfile

from .errors import ProdcoefError, ValidationError


def worker_count(threads: int, jobs: int) -> int:
    """Workers to run `jobs` independent jobs on: `threads`, where 0
    means one per CPU, capped at the number of jobs and at least 1."""
    if threads < 0:
        raise ValidationError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        threads = os.cpu_count() or 1
    return max(1, min(threads, jobs))


class ForkedChildren:
    """Child processes made by POSIX fork, each writing into its own
    unlinked temporary file, which this process reads once the child
    has exited.

    Children inherit this process's memory copy-on-write, so only what
    they write into their files comes back. Used as a context manager:
    on leaving it, every child not yet waited for is killed and reaped
    and every file closed, whether the block ends normally or by an
    exception. Forking needs a caller with no other threads running.
    """

    def __init__(self):
        # (pid, file, sentinel) of each child not yet waited for, oldest
        # first. The sentinel is the read end of a pipe whose one write
        # end the child holds, so it reads as ready once the child exits.
        self._running = []
        self._files = []

    def __enter__(self) -> ForkedChildren:
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for pid, _, sentinel in self._running:
                os.close(sentinel)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            for spool in self._files:
                spool.close()

    def fork(self, work, doing: str) -> None:
        """Fork a child that runs work(file) on its own file, flushes the
        file and exits 0. The child leaves only by os._exit, so it never
        flushes this process's buffers or runs its exit handlers; on an
        exception it writes one line naming what it was `doing` to
        stderr and exits 1."""
        spool = tempfile.TemporaryFile()
        self._files.append(spool)
        sentinel, held = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(sentinel)
            os.close(held)
            raise
        if pid == 0:
            status = 1
            try:
                work(spool)
                spool.flush()
                status = 0
            except BaseException as exc:
                os.write(2, f"error: {doing}: {type(exc).__name__}: {exc}\n"
                            .encode(errors="replace"))
                raise  # no further than the os._exit below
            finally:
                os._exit(status)
        os.close(held)
        self._running.append((pid, spool, sentinel))

    def wait(self, name: str):
        """The file of the oldest child not yet waited for, rewound, once
        that child has exited. A child that did not exit 0 is a
        ProdcoefError saying that `name` died."""
        return self._reap(0, name)

    def wait_any(self, name: str):
        """As `wait`, for whichever child not yet waited for exits first."""
        ready = select.select([sentinel for _, _, sentinel in self._running], [], [])[0]
        return self._reap(next(i for i, (_, _, sentinel) in enumerate(self._running)
                               if sentinel in ready), name)

    def _reap(self, child: int, name: str):
        pid, spool, sentinel = self._running[child]
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del self._running[child]
        os.close(sentinel)
        if code:
            detail = (f"killed by signal {-code}, perhaps out of memory" if code < 0
                      else f"exit status {code}")
            raise ProdcoefError(f"{name} died ({detail})")
        spool.seek(0)
        return spool
