"""A named, directory-backed store of columnar datasets.

:class:`DatasetStore` gives datasets *names*: ``store.put(name, frame)``
persists a dataframe under ``<root>/<name>/`` in the columnar format and
``store.open(name)`` serves it back as an mmap-backed frame.  Opened
datasets are cached per store instance, so every frame handed out for one
name shares the same mapped buffers and column objects — one physical copy
per process no matter how many tenants, sessions, or threads hold it.

This is the process-crossing half of the serving story: a service restarts
warm by re-opening named datasets instead of re-ingesting CSVs, and
multiple replicas on one machine share the page cache.

Writes are serialized per dataset name with a directory lock
(:class:`_DirectoryLock`): each writer stages into its own unique
directory (so interleaved files are impossible even unlocked), but two
concurrent overwriters of the *same* name still race on the final
rmtree-then-rename of the destination — the lock makes ``put`` safe from
any number of threads or processes, and makes the put-then-open read
consistent.  Locks left behind by a crashed writer are taken over once
their owner is provably dead (or the lock outlives ``stale_after``).
"""

from __future__ import annotations

import os
import re
import shutil
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..dataframe.frame import DataFrame
from ..errors import StorageError
from ..obs.trace import current_tracer
from .format import MANIFEST_NAME
from .reader import Dataset
from .writer import write_dataset

#: Dataset names must be usable as directory names everywhere.
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: How long ``put`` waits for a competing writer before giving up.
DEFAULT_LOCK_TIMEOUT = 30.0

#: Age beyond which a lock whose owner cannot be verified counts as stale.
DEFAULT_LOCK_STALE_AFTER = 60.0


class _DirectoryLock:
    """An ``O_CREAT|O_EXCL`` lock file with stale-lock takeover.

    The lock file records ``pid owner-token timestamp``.  Contenders poll:
    a lock whose recorded pid is provably dead — or, when the owner cannot
    be verified (unreadable file, foreign-host pid), one older than
    ``stale_after`` — is *taken over*.  Takeover renames the lock to a
    unique doomed name first and unlinks that: the rename can only succeed
    for one contender, so two breakers can never each unlink a fresh lock
    the other just created (the classic unlink/recreate race).

    A held lock is kept fresh by a heartbeat thread that re-stamps the
    timestamp every ``stale_after / 4`` seconds, so a *live* writer is
    never stolen from however long its write takes; ``stale_after`` only
    reaps owners that stopped making progress (crashed, frozen, or
    SIGSTOPped long enough to miss their heartbeats).

    Release verifies the recorded owner token (inodes get reused too
    eagerly to discriminate) before unlinking, so a writer whose lock was
    stolen while it was stuck does not remove the thief's lock.  The
    verify-then-unlink pair is not atomic — a steal landing in the
    microseconds between them can still lose its fresh lock — but reaching
    that window at all requires the owner to have missed heartbeats for
    ``stale_after`` first; plain ``O_CREAT|O_EXCL`` files offer nothing
    stronger.
    """

    def __init__(self, path: Path, timeout: float = DEFAULT_LOCK_TIMEOUT,
                 stale_after: float = DEFAULT_LOCK_STALE_AFTER,
                 poll_interval: float = 0.01) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self._token = uuid.uuid4().hex
        self._heartbeat_stop: Optional[threading.Event] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ public
    def acquire(self) -> None:
        started = time.monotonic()
        deadline = started + self.timeout
        contended = False
        while True:
            try:
                descriptor = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                contended = True
                self._break_if_stale()
                if time.monotonic() >= deadline:
                    raise StorageError(
                        f"timed out after {self.timeout:.0f}s waiting for the "
                        f"writer lock {self.path}"
                    ) from None
                time.sleep(self.poll_interval)
                continue
            try:
                os.write(descriptor, f"{os.getpid()} {self._token} {time.time():.3f}\n".encode())
            finally:
                os.close(descriptor)
            if contended:
                # Only contended acquisitions are interesting: an instant
                # O_CREAT|O_EXCL success is the overwhelmingly common case.
                current_tracer().event(
                    "lock.wait", labels={"lock": self.path.name},
                    seconds=time.monotonic() - started,
                )
            self._start_heartbeat()
            return

    def release(self) -> None:
        self._stop_heartbeat()
        try:
            _, token, _ = self._read()
        except OSError:
            return
        if token == self._token:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def __enter__(self) -> "_DirectoryLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # ---------------------------------------------------------------- internals
    def _start_heartbeat(self) -> None:
        interval = min(self.stale_after / 4.0, 15.0)
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                self._refresh_stamp()

        thread = threading.Thread(target=beat, name="dataset-lock-heartbeat",
                                  daemon=True)
        self._heartbeat_stop = stop
        self._heartbeat_thread = thread
        thread.start()

    def _stop_heartbeat(self) -> None:
        if self._heartbeat_stop is not None:
            self._heartbeat_stop.set()
            self._heartbeat_thread.join()
            self._heartbeat_stop = None
            self._heartbeat_thread = None

    def _refresh_stamp(self) -> None:
        """Re-stamp the lock while it is still ours.

        Token check and rewrite share one open handle, so a takeover can
        never be clobbered: whatever file the ``"r+"`` open resolved —
        ours, or a thief's fresh lock — is the file the token is read
        from, and a mismatch means no write.  ``"r+"`` never creates: a
        vanished lock stays gone rather than being resurrected by its old
        owner's heartbeat, and writing to a file a takeover renamed away
        mid-refresh lands on the doomed orphan, not on the live lock.  A
        contender reading mid-rewrite sees a half-written file, which the
        stale logic treats as unverifiable and judges by age — freshly
        written, so never stolen.
        """
        try:
            with self.path.open("r+") as handle:
                raw = handle.read().split()
                token = raw[1] if len(raw) > 1 else None
                if token != self._token:
                    return
                handle.seek(0)
                handle.write(f"{os.getpid()} {self._token} {time.time():.3f}\n")
                handle.truncate()
        except OSError:
            pass

    def _read(self):
        raw = self.path.read_text().split()
        pid = int(raw[0]) if raw and raw[0].isdigit() else None
        token = raw[1] if len(raw) > 1 else None
        stamped = None
        if len(raw) > 2:
            try:
                stamped = float(raw[2])
            except ValueError:
                stamped = None
        return pid, token, stamped

    def _break_if_stale(self) -> None:
        try:
            pid, _, stamped = self._read()
        except (OSError, ValueError):
            # Vanished (the owner released it) or half-written: age decides.
            pid = None
            stamped = None
        if pid is not None and _pid_alive(pid):
            # A live local owner only loses the lock after stale_after — a
            # wedged writer must not block every future put forever, and the
            # worst case of breaking a merely-slow one is a re-raced staging
            # write, never a torn dataset (the final rename stays atomic).
            if stamped is None or time.time() - stamped < self.stale_after:
                return
        elif pid is None:
            age = self._age()
            if age is None or age < self.stale_after:
                return
        doomed = self.path.with_name(
            f"{self.path.name}.stale-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            os.rename(self.path, doomed)
        except OSError:
            return  # someone else won the takeover (or the owner released)
        try:
            os.unlink(doomed)
        except OSError:
            pass

    def _age(self) -> Optional[float]:
        try:
            return time.time() - self.path.stat().st_mtime
        except OSError:
            return None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    except OSError:
        return True  # cannot verify: treat as alive, let age decide
    return True


class DatasetStore:
    """Named datasets under one root directory (thread-safe)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._datasets: Dict[str, Dataset] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ public
    def put(self, name: str, frame: DataFrame, overwrite: bool = True,
            lock_timeout: float = DEFAULT_LOCK_TIMEOUT) -> Dataset:
        """Persist ``frame`` under ``name``; returns the opened dataset.

        Safe under concurrent writers (threads *and* processes): writers of
        the same name serialize on a ``.<name>.lock`` file next to the
        dataset directory; see :class:`_DirectoryLock`.  ``lock_timeout``
        bounds the wait for a competing writer.
        """
        path = self._path(name)
        with _DirectoryLock(self.root / f".{name}.lock", timeout=lock_timeout):
            write_dataset(frame, path, overwrite=overwrite)
            # Open AND publish while still holding the lock: a competing
            # writer's overwrite must race neither our read of the manifest
            # we just wrote nor the cache update — a preempted loser could
            # otherwise overwrite the winner's cached handle with a stale
            # one whose files are already deleted.
            dataset = Dataset(path)
            with self._lock:
                self._datasets[name] = dataset
        return dataset

    def open(self, name: str) -> DataFrame:
        """The mmap-backed frame of dataset ``name`` (shared buffers)."""
        return self.dataset(name).frame()

    def dataset(self, name: str) -> Dataset:
        """The opened (cached) :class:`Dataset` handle of ``name``."""
        dataset = self._datasets.get(name)
        if dataset is None:
            with self._lock:
                dataset = self._datasets.get(name)
                if dataset is None:
                    path = self._path(name)
                    if not (path / MANIFEST_NAME).exists():
                        raise StorageError(
                            f"dataset {name!r} not found in store {self.root}"
                        )
                    dataset = Dataset(path)
                    self._datasets[name] = dataset
        return dataset

    def contains(self, name: str) -> bool:
        """True when ``name`` is stored (or already opened)."""
        if name in self._datasets:
            return True
        try:
            path = self._path(name)
        except StorageError:
            return False
        return (path / MANIFEST_NAME).exists()

    def __contains__(self, name: str) -> bool:
        return self.contains(name)

    def names(self) -> List[str]:
        """Names of every stored dataset (sorted)."""
        found = {
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / MANIFEST_NAME).exists()
        }
        return sorted(found | set(self._datasets))

    def version_tokens(self) -> List[Tuple[str, object, str]]:
        """Fresh ``(name, manifest version, fingerprint)`` of every dataset.

        Read from disk, bypassing the handle cache: the point is to
        observe *other* processes' rewrites, which a cached handle never
        would.  This is the epoch-key source of the replica fleet's shared
        cache tier — any rewrite of any dataset changes its token here,
        which invalidates the fleet's shared cache entries.  Datasets
        mid-rewrite (manifest briefly absent) are skipped; the next read
        sees the final token.
        """
        tokens: List[Tuple[str, object, str]] = []
        for name in self.names():
            try:
                dataset = Dataset(self._path(name))
            except StorageError:
                continue
            tokens.append((name, dataset.manifest.version, dataset.fingerprint))
        return tokens

    def delete(self, name: str) -> bool:
        """Drop dataset ``name``; returns whether anything was removed.

        Frames already handed out keep working — their buffers stay mapped
        until the last reference dies (POSIX unlink semantics).
        """
        path = self._path(name)
        with self._lock:
            existed = self._datasets.pop(name, None) is not None
        if path.exists():
            shutil.rmtree(path)
            existed = True
        return existed

    def close(self) -> None:
        """Drop every cached dataset handle (buffers unmap with the GC)."""
        with self._lock:
            self._datasets.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatasetStore({str(self.root)!r}, datasets={len(self.names())})"

    # ---------------------------------------------------------------- internals
    def _path(self, name: str) -> Path:
        if not _NAME_PATTERN.match(name or ""):
            raise StorageError(
                f"invalid dataset name {name!r}; use letters, digits, '.', '_', '-'"
            )
        return self.root / name
