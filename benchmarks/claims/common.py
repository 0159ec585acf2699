"""Simulation plumbing the experiments share."""

import hashlib

import numpy as np


def run(env, gen):
    """Run one simulated process to completion and return its value."""
    return env.run(env.process(gen))


def run_all(env, gens):
    """Start one process per generator and run until every one finishes."""

    def driver():
        yield env.all_of([env.process(g) for g in gens])

    env.run(env.process(driver()))


def fill(env, f, data=None):
    """Write ``data`` (zero records by default) through ``f``'s global view."""
    if data is None:
        data = np.zeros((f.n_records, f.attrs.record_size), dtype=np.uint8)
    run(env, f.global_view().write(data))


def media_digest(f) -> str:
    """sha256 of ``f``'s raw bytes on the modelled devices."""
    raw = f.volume.peek(f.entry.extent, f.layout, 0, f.attrs.file_bytes)
    return hashlib.sha256(np.ascontiguousarray(raw).tobytes()).hexdigest()
