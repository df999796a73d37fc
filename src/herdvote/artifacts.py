"""Artifact files: one protocol by which every command writes its outputs,
and the digest-checked reads of a run's files.

A command names its output paths to `publication` before it does any work.
Each path is checked then, and a private `.staging-*` directory is made
for it in the nearest existing directory above it.  A directory (or a
name such as "dir/") where the file must go, a file standing where a
directory must be, a directory that cannot be written in, or a file that
two outputs name (however spelled, through links included) is a
`ConfigError` naming the path, so a bad output path costs no simulation or
solve and leaves nothing behind.  Inside the `with` block the command
stages each file: its writer writes it into the staging directory.  When
the block ends without an error, the missing directories are created and
every staged file is moved to its name with `os.replace`, in staging
order.  On any error nothing is published: the staging is removed, and
every output path and directory is left as it was.

`ConfigError` is every input error of the command line: its message is
printed as one `error:` line and the process exits with code 3.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def publication(paths):
    """Publish the files at `paths` together; the paths are checked at once.

    Yields `stage(path, write)`, which calls `write` on a staging path for
    `path` and returns that path.  The staged files are moved into place
    when the `with` block ends without an error.
    """
    staging, staged = {}, []  # output directory -> its staging; (staged, final) paths
    named = set()  # the resolved output paths

    def stage(path: str, write) -> str:
        tmp = os.path.join(staging[os.path.dirname(path) or os.curdir], os.path.basename(path))
        staged.append((tmp, path))
        write(tmp)
        return tmp

    try:
        for path in paths:
            if os.path.isdir(path) or os.path.basename(path) in ("", ".", ".."):
                raise ConfigError(f"cannot write {path}: it names a directory")
            if (real := os.path.realpath(path)) in named:
                raise ConfigError(f"cannot write {path}: another output names the same file")
            named.add(real)
            directory = found = os.path.dirname(path) or os.curdir
            while not os.path.lexists(found):  # stage in the nearest existing directory
                found = os.path.dirname(found) or os.curdir
            if directory not in staging:
                try:
                    staging[directory] = tempfile.mkdtemp(prefix=".staging-", dir=found)
                except OSError as exc:  # a file in the way, or no write permission
                    raise ConfigError(f"cannot write in {found}: {exc.strerror}") from None
        yield stage
        for tmp, path in staged:
            os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
            os.replace(tmp, path)
    finally:
        for directory in staging.values():
            shutil.rmtree(directory, ignore_errors=True)


# -- reading a run's files back ----------------------------------------------

def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def sha256_file(path) -> str:
    import hashlib  # only the commands that digest files load it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def recorded_digests(manifest_path: str) -> dict:
    """The artifact digests a run's manifest records, by file name.

    A manifest that cannot be read, is not JSON or holds no "artifacts"
    mapping is a config error that names it.
    """
    try:
        recorded = json.loads(_read(manifest_path))["artifacts"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"damaged manifest {manifest_path}: {exc!r}") from None
    if not isinstance(recorded, dict):
        raise ConfigError(f"damaged manifest {manifest_path}: its artifacts are not a mapping")
    return recorded


def read_verified(run_dir: str, names) -> list:
    """The bytes of each named artifact, checked against the run's manifest.

    A file that cannot be read, a manifest that cannot be read or lacks a
    digest, and a file whose sha256 differs from its recorded digest are
    config errors that name the file.
    """
    import hashlib

    contents = [_read(os.path.join(run_dir, name)) for name in names]
    manifest_path = os.path.join(run_dir, "manifest.json")
    recorded = recorded_digests(manifest_path)
    for name, data in zip(names, contents):
        if name not in recorded:
            raise ConfigError(f"damaged manifest {manifest_path}: no entry {name!r}")
        if (fresh := hashlib.sha256(data).hexdigest()) != recorded[name]:
            raise ConfigError(f"damaged artifact {os.path.join(run_dir, name)}: sha256 "
                              f"{fresh[:12]} differs from the manifest's {recorded[name]!s:.12}")
    return contents
