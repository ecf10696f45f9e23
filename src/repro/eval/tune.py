"""Per-design superword width auto-tuner (+ its CLI).

The bit-parallel simulator costs per *kernel pass*, not per pattern:
one compiled pass over a ``W``×64-pattern superword amortizes the
per-gate interpreter overhead over ``W`` more patterns, so ms/pattern
falls with ``W`` — until Python big-int arithmetic goes super-linear
and wide words start paying more per pattern than they save.  Where
that knee sits depends on the design (gate count vs net width), so it
is *measured*, not guessed:

    python -m repro tune width               # tune every serve design
    python -m repro tune width --design r16  # one design

For each candidate ``W`` in :data:`WIDTHS` the tuner packs a seeded
random stimulus into one ``W``×64-pattern superword, runs the
straight-line levelized kernel the serve lane engines run (best of
``repeats``), and derives ms/pattern.  The
chosen width is the **smallest** ``W`` within :data:`KNEE_TOLERANCE`
of the fastest — preferring narrow words keeps serve batching latency
and memory bounded when the wider word buys nothing.

The choice is persisted in the content-addressed result store (see
:mod:`repro.eval.cache`), keyed by the source fingerprint like every
other cached result — editing the simulator re-tunes automatically.
:func:`tuned_word_patterns` is the cheap cache-only reader the serving
stack uses (``--word-patterns auto``); the live choice is exported via
the ``tune.word_patterns.<design>`` gauge.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro import obs

#: Candidate superword widths, in 64-pattern words: ``patterns = W*64``.
WIDTHS = (1, 2, 4, 8, 16, 64)

#: Prefer the *smallest* width within this fraction of the fastest.
KNEE_TOLERANCE = 0.10

#: Designs ``tune width`` profiles when none is named.
DEFAULT_DESIGNS = ("r16", "mf")


@dataclass(frozen=True)
class _TuneJob:
    """A result-cache key carrier (shaped like a scheduler job)."""

    name: str
    fn: str
    params: Dict[str, object] = field(default_factory=dict)


def _tune_job(design, widths=WIDTHS, seed=2017):
    return _TuneJob(name=f"tune/width/{design}",
                    fn="repro.eval.tune:tune_width",
                    params={"design": design, "widths": tuple(widths),
                            "seed": seed})


def _random_stimulus(module, n_patterns, seed):
    """Design-agnostic dense stimulus: every input bus fully random."""
    import random

    rng = random.Random(seed)
    return {name: [rng.getrandbits(len(nets)) for __ in range(n_patterns)]
            for name, nets in module.inputs.items()}


def profile_widths(design, widths=WIDTHS, seed=2017, repeats=3,
                   clock=None):
    """Measure ms/pattern at each candidate width for ``design``.

    Returns rows ``{"width", "patterns", "ms_per_pattern", "ms"}`` in
    ``widths`` order.  ``clock`` is injectable for deterministic tests
    (default :func:`time.perf_counter`).
    """
    from repro.eval.experiments import cached_module
    from repro.hdl.sim.compile import compiled_module
    from repro.hdl.sim.levelized import LevelizedSimulator

    if clock is None:
        clock = time.perf_counter
    module = cached_module(design)
    # Time the straight-line kernel the serve lane engines run.
    compiled_module(module).compile()
    sim = LevelizedSimulator(module)
    # One throwaway pass so first-touch costs are not billed to W=1.
    sim.run(_random_stimulus(module, 64, seed), 64)
    rows = []
    for width in widths:
        n = width * 64
        stim = _random_stimulus(module, n, seed)
        best = None
        for __ in range(max(1, repeats)):
            t0 = clock()
            sim.run(stim, n)
            dt = clock() - t0
            if best is None or dt < best:
                best = dt
        rows.append({"width": width, "patterns": n,
                     "ms": best * 1e3,
                     "ms_per_pattern": best * 1e3 / n})
    return rows


def pick_width(profile, tolerance=KNEE_TOLERANCE):
    """The knee: smallest width within ``tolerance`` of the fastest."""
    if not profile:
        raise ValueError("empty width profile")
    floor = min(row["ms_per_pattern"] for row in profile)
    for row in sorted(profile, key=lambda r: r["width"]):
        if row["ms_per_pattern"] <= floor * (1.0 + tolerance):
            return row["width"]
    return profile[-1]["width"]              # pragma: no cover


def tune_width(design, widths=WIDTHS, seed=2017, repeats=3, cache=True,
               profile=None, clock=None):
    """Profile ``design`` and persist the chosen superword width.

    Returns ``{"design", "width", "word_patterns", "profile",
    "tolerance"}``.  A precomputed ``profile`` skips measurement
    (deterministic tests); ``cache=False`` skips the result store, and
    a :class:`~repro.eval.cache.ResultCache` instance targets a
    specific store.
    """
    from repro.eval.cache import resolve_cache

    if profile is None:
        profile = profile_widths(design, widths=widths, seed=seed,
                                 repeats=repeats, clock=clock)
    width = pick_width(profile)
    result = {"design": design, "width": width,
              "word_patterns": width * 64, "profile": profile,
              "tolerance": KNEE_TOLERANCE}
    store = resolve_cache(cache)
    if store is not None:
        store.store(_tune_job(design, widths=widths, seed=seed), result)
    obs.registry().gauge(f"tune.word_patterns.{design}",
                         result["word_patterns"])
    return result


def tuned_word_patterns(design, default=64, widths=WIDTHS, seed=2017,
                        cache=True):
    """The cached tuned ``word_patterns`` for ``design``, else ``default``.

    Cache-only: never measures.  Serving uses this for
    ``--word-patterns auto`` so cold starts stay fast and deterministic.
    """
    from repro.eval.cache import resolve_cache

    store = resolve_cache(cache)
    if store is None:
        return default
    hit, value = store.load(_tune_job(design, widths=widths, seed=seed))
    if not hit or not isinstance(value, dict):
        return default
    patterns = value.get("word_patterns")
    if not isinstance(patterns, int) or patterns < 64:
        return default
    obs.registry().gauge(f"tune.word_patterns.{design}", patterns)
    return patterns


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Measure and persist per-design superword widths "
                    "for the bit-parallel simulator.")
    sub = parser.add_subparsers(dest="command", required=True)
    width_p = sub.add_parser(
        "width", help="profile ms/pattern at W in {%s} and cache the knee"
                      % ",".join(str(w) for w in WIDTHS))
    width_p.add_argument("--design", action="append", default=None,
                         help="design to tune (repeatable; default: "
                              + "/".join(DEFAULT_DESIGNS))
    width_p.add_argument("--seed", type=int, default=2017)
    width_p.add_argument("--repeats", type=int, default=3)
    width_p.add_argument("--no-cache", action="store_true",
                         help="measure and report only; do not persist")
    width_p.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.command == "width":
        designs = args.design or list(DEFAULT_DESIGNS)
        results = []
        for design in designs:
            result = tune_width(design, seed=args.seed,
                                repeats=args.repeats,
                                cache=not args.no_cache)
            results.append(result)
            if not args.json:
                print(f"{design}: word_patterns={result['word_patterns']} "
                      f"(W={result['width']})")
                for row in result["profile"]:
                    print(f"  W={row['width']:>3} ({row['patterns']:>5} "
                          f"patterns): {row['ms_per_pattern'] * 1e3:8.2f} "
                          f"us/pattern  ({row['ms']:.2f} ms/run)")
        if args.json:
            print(json.dumps(results, indent=2, sort_keys=True))
        return 0
    return 2                                 # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
