"""Building the C kernel into its cache directory: ``kernel._load``
imports this module only when no cached build matches today's key, so a
process that loads a cached build never compiles it."""

import os
import shlex
import subprocess
import tempfile

from .kernel import _SOURCE


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def build(base: str, command: list[str], key: bytes) -> None:
    """Build the kernel into ``base.so``, then write ``key`` to ``base.key``,
    each through a temporary file renamed into place, after deleting the
    stale ``base.key``: a build cut short leaves no key that could match."""
    _unlink(base + ".key")
    directory, name = os.path.split(base)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=name, suffix=".tmp")
    os.close(fd)
    try:
        argv = [*command, "-o", tmp, _SOURCE]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        except subprocess.SubprocessError as exc:
            raise OSError(f"{shlex.join(argv)}: {exc}") from exc
        if proc.returncode != 0:
            raise OSError(
                f"{shlex.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
            )
        os.replace(tmp, base + ".so")
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=name, suffix=".tmp")
        with open(fd, "wb") as fh:
            fh.write(key)
        os.replace(tmp, base + ".key")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def prune(keep: str) -> None:
    """Delete the ``kernel-*.so`` builds beside ``keep`` but the four most
    recently modified, ``keep`` among them, each with its ``.key``: two
    sources compared in one process both load without a rebuild, and a
    process that loaded a deleted build keeps its mapping."""
    directory = os.path.dirname(keep)
    try:
        builds = [os.path.join(directory, name) for name in os.listdir(directory)
                  if name.startswith("kernel-") and name.endswith(".so")]
        builds.sort(key=os.path.getmtime)
        for old in builds[:-4]:
            if old != keep:
                os.unlink(old)
                _unlink(old.removesuffix(".so") + ".key")
    except OSError:  # another process pruning at once
        pass
