"""Compact binary container for path and adjoint ensembles.

Layout (all integers little-endian):

    magic "RSMP" | u32 version | 4-byte section tag | u32 n_meta | u32 n_arrays
    n_meta  x (u16 key length, key utf-8, f64 value)
    n_arrays x (u16 name length, name utf-8, u8 ndim, ndim x u64 shape,
                row-major f64 data)

Path ensembles use tag "PATH", adjoint ensembles "ADJT".
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DomainError

MAGIC = b"RSMP"
VERSION = 1
TAG_PATHS = b"PATH"
TAG_ADJOINT = b"ADJT"


def write_section(fileobj, tag: bytes, meta: dict, arrays: dict) -> None:
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj, "wb")
        close = True
    try:
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
    finally:
        if close:
            fileobj.close()


def read_section(fileobj):
    close = False
    if isinstance(fileobj, (str, bytes)):
        fileobj = open(fileobj, "rb")
        close = True
    try:
        if fileobj.read(4) != MAGIC:
            raise DomainError("not a container file (bad magic)")
        (version,) = struct.unpack("<I", fileobj.read(4))
        if version != VERSION:
            raise DomainError(f"unsupported container version {version}")
        tag = fileobj.read(4)
        n_meta, n_arrays = struct.unpack("<II", fileobj.read(8))
        meta = {}
        for _ in range(n_meta):
            (klen,) = struct.unpack("<H", fileobj.read(2))
            key = fileobj.read(klen).decode("utf-8")
            (meta[key],) = struct.unpack("<d", fileobj.read(8))
        arrays = {}
        for _ in range(n_arrays):
            (nlen,) = struct.unpack("<H", fileobj.read(2))
            name = fileobj.read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", fileobj.read(1))
            shape = struct.unpack(f"<{ndim}Q", fileobj.read(8 * ndim))
            count = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(fileobj.read(8 * count), dtype="<f8").reshape(shape)
            arrays[name] = data.copy()
        return tag, meta, arrays
    finally:
        if close:
            fileobj.close()


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
    }
    arrays = {"states": paths.states, "dW": noise.dW}
    if noise.jump_counts is not None:
        arrays["jump_counts"] = noise.jump_counts
    write_section(fileobj, TAG_PATHS, meta, arrays)


def adjoint_to_binary(adj, fileobj) -> None:
    """Serialize an AdjointEnsemble under its own section tag."""
    M, Np1, n = adj.psi.shape
    meta = {"M": M, "N": Np1 - 1, "n": n, "m": adj.Q.shape[3]}
    arrays = {"psi": adj.psi, "psi_cont": adj.psi_cont, "Q": adj.Q}
    if adj.phi is not None:
        arrays["phi"] = adj.phi
        meta["J"] = adj.phi.shape[2]
    write_section(fileobj, TAG_ADJOINT, meta, arrays)
