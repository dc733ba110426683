"""Dataset I/O: the HDF5-like store (npz-backed offline).

OP2/OPS "have support for parallel I/O using HDF5" and provide "API calls
to dump entire datasets to disk, even in a distributed memory environment"
(paper Sections II-B/II-C).  h5py is unavailable offline, so the same API
shape is provided over ``numpy.savez``: declare sets/maps/dats from a file,
dump dats back (gathering owned parts under MPI).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.common.errors import APIError
from repro.op2.dat import Dat
from repro.op2.map import Map
from repro.op2.set import Set


def write_mesh(path: str | Path, sets: dict[str, Set], maps: dict[str, Map], dats: dict[str, Dat]) -> None:
    """Serialise a whole mesh (sets, maps, dats) into one npz file."""
    payload: dict[str, np.ndarray] = {}
    for name, s in sets.items():
        payload[f"set/{name}"] = np.asarray([s.size], dtype=np.int64)
    for name, m in maps.items():
        payload[f"map/{name}/values"] = m.values
        payload[f"map/{name}/meta"] = np.asarray(
            [_set_index(sets, m.from_set), _set_index(sets, m.to_set), m.arity],
            dtype=np.int64,
        )
    for name, d in dats.items():
        payload[f"dat/{name}/data"] = d.data
        payload[f"dat/{name}/meta"] = np.asarray([_set_index(sets, d.set), d.dim], dtype=np.int64)
    # fixed-width strings, not objects: the file must load without pickle
    payload["set_names"] = np.asarray(sorted(sets), dtype=np.str_)
    np.savez(Path(path), **payload)


def _set_index(sets: dict[str, Set], s: Set) -> int:
    for i, name in enumerate(sorted(sets)):
        if sets[name] is s:
            return i
    raise APIError(f"set {s.name} not in the declared set dictionary")


def read_mesh(path: str | Path) -> tuple[dict[str, Set], dict[str, Map], dict[str, Dat]]:
    """Load a mesh written by :func:`write_mesh`.

    Pickling stays off: a mesh is plain arrays, and unpickling an object
    array could run arbitrary code, so such a file raises ``APIError``.
    """
    try:
        return _read_mesh(Path(path))
    except ValueError as exc:  # np.load refuses object arrays without pickle
        raise APIError(f"{path}: not a plain-array mesh file ({exc})") from exc


def _read_mesh(path: Path) -> tuple[dict[str, Set], dict[str, Map], dict[str, Dat]]:
    with np.load(path, allow_pickle=False) as npz:
        set_names = [str(n) for n in npz["set_names"]]
        sets: dict[str, Set] = {}
        for name in set_names:
            size = int(npz[f"set/{name}"][0])
            sets[name] = Set(size, name)
        ordered = [sets[n] for n in sorted(sets)]
        maps: dict[str, Map] = {}
        dats: dict[str, Dat] = {}
        for key in npz.files:
            if key.startswith("map/") and key.endswith("/values"):
                name = key.split("/")[1]
                meta = npz[f"map/{name}/meta"]
                maps[name] = Map(
                    ordered[int(meta[0])], ordered[int(meta[1])], int(meta[2]),
                    npz[key], name,
                )
            elif key.startswith("dat/") and key.endswith("/data"):
                name = key.split("/")[1]
                meta = npz[f"dat/{name}/meta"]
                dats[name] = Dat(
                    ordered[int(meta[0])], int(meta[1]), npz[key], name=name
                )
        return sets, maps, dats


def dump_dat(path: str | Path, dat: Dat) -> None:
    """Dump one dat's owned values to disk (debug/consistency API)."""
    np.savez(Path(path), data=dat.data[: dat.set.size], dim=np.asarray([dat.dim]))


def load_dat_values(path: str | Path) -> np.ndarray:
    """Read values previously dumped with :func:`dump_dat`."""
    with np.load(Path(path)) as npz:
        return npz["data"]
