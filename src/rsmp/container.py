"""Artifact files of path and adjoint ensembles, CSV and a compact binary
container.  Every file argument is a path (`str`, `bytes`, `os.PathLike`) or
an open file object; `_opened` is the one opener, also the CLI's.

Binary layout (all integers little-endian):

    magic "RSMP" | u32 version | 4-byte section tag | u32 n_meta | u32 n_arrays
    n_meta  x (u16 key length, key utf-8, f64 value)
    n_arrays x (u16 name length, name utf-8, u8 ndim, ndim x u64 shape,
                row-major f64 data)

Path ensembles use tag "PATH", adjoint ensembles "ADJT".
"""

from __future__ import annotations

import os
import struct
from contextlib import nullcontext

import numpy as np

from .errors import DomainError
from .forward import NUMERICS_VERSION

MAGIC = b"RSMP"
VERSION = 1
TAG_PATHS = b"PATH"
TAG_ADJOINT = b"ADJT"


def _opened(target, mode: str):
    """A context of target itself for a file object, and of a path (`str`,
    `bytes`, `os.PathLike`) opened in mode, UTF-8 with LF for text, closed on exit."""
    if not isinstance(target, (str, bytes, os.PathLike)):
        return nullcontext(target)
    return open(target, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}))


def write_section(fileobj, tag: bytes, meta: dict, arrays: dict) -> None:
    with _opened(fileobj, "wb") as fileobj:
        fileobj.write(MAGIC)
        fileobj.write(struct.pack("<I", VERSION))
        fileobj.write(tag)
        fileobj.write(struct.pack("<II", len(meta), len(arrays)))
        for key in sorted(meta):
            kb = key.encode("utf-8")
            fileobj.write(struct.pack("<H", len(kb)))
            fileobj.write(kb)
            fileobj.write(struct.pack("<d", float(meta[key])))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            nb = name.encode("utf-8")
            fileobj.write(struct.pack("<H", len(nb)))
            fileobj.write(nb)
            fileobj.write(struct.pack("<B", arr.ndim))
            fileobj.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fileobj.write(arr.tobytes())


def _read(fileobj, size: int) -> bytes:
    """The next size bytes of fileobj; DomainError when the file ends first."""
    data = fileobj.read(size)
    if len(data) != size:
        raise DomainError(f"truncated container file: needed {size} more bytes, found {len(data)}")
    return data


def _unpack(fileobj, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(fileobj, struct.calcsize(fmt)))


def read_section(fileobj):
    """(tag, meta, arrays) of one section; DomainError for a file that is not
    a container, has another version or is cut short."""
    with _opened(fileobj, "rb") as fileobj:
        if _read(fileobj, 4) != MAGIC:
            raise DomainError("not a container file (bad magic)")
        (version,) = _unpack(fileobj, "<I")
        if version != VERSION:
            raise DomainError(f"unsupported container version {version}")
        tag = _read(fileobj, 4)
        n_meta, n_arrays = _unpack(fileobj, "<II")
        meta = {}
        for _ in range(n_meta):
            (klen,) = _unpack(fileobj, "<H")
            key = _read(fileobj, klen).decode("utf-8")
            (meta[key],) = _unpack(fileobj, "<d")
        arrays = {}
        for _ in range(n_arrays):
            (nlen,) = _unpack(fileobj, "<H")
            name = _read(fileobj, nlen).decode("utf-8")
            (ndim,) = _unpack(fileobj, "<B")
            shape = _unpack(fileobj, f"<{ndim}Q")
            count = int(np.prod(shape)) if ndim else 1
            arrays[name] = np.frombuffer(_read(fileobj, 8 * count), dtype="<f8").reshape(shape).copy()
        return tag, meta, arrays


def paths_to_csv(paths, fileobj) -> None:
    """One row per (path, step): path, step, t, x_0 .. x_{n-1}.

    UTF-8, header row, '.' decimals, LF line endings; floats use shortest
    round-trip formatting so replays are byte-identical.
    """
    with _opened(fileobj, "w") as fileobj:
        fileobj.write("path,step,t," + ",".join(f"x{i}" for i in range(paths.states.shape[2])) + "\n")
        for q in range(paths.M):
            for k in range(paths.n_steps + 1):
                row = ",".join(repr(float(v)) for v in paths.states[q, k])
                fileobj.write(f"{q},{k},{paths.dt * k!r},{row}\n")


def paths_to_binary(paths, fileobj) -> None:
    """Serialize a PathEnsemble (states plus driving noise)."""
    noise = paths.noise
    meta = {
        "M": noise.M,
        "N": noise.N,
        "n": paths.states.shape[2],
        "m": noise.m,
        "dt": noise.dt,
        "seed": noise.seed,
        "stream_version": noise.stream_version,
        "numerics_version": NUMERICS_VERSION,
    }
    arrays = {"states": paths.states, "dW": noise.dW}
    if noise.jump_counts.shape[2]:  # J = 0: a diffusion's file has no jump_counts array
        arrays["jump_counts"] = noise.jump_counts
    write_section(fileobj, TAG_PATHS, meta, arrays)


def adjoint_to_binary(adj, fileobj) -> None:
    """Serialize an AdjointEnsemble under its own section tag."""
    M, Np1, n = adj.psi.shape
    meta = {"M": M, "N": Np1 - 1, "n": n, "m": adj.Q.shape[3], "numerics_version": NUMERICS_VERSION}
    arrays = {"psi": adj.psi, "psi_cont": adj.psi_cont, "Q": adj.Q}
    if adj.phi.shape[2]:  # J = 0: no phi array and no J entry
        arrays["phi"] = adj.phi
        meta["J"] = adj.phi.shape[2]
    write_section(fileobj, TAG_ADJOINT, meta, arrays)
