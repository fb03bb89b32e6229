"""Span profiling: where does a WebIQ run spend its (simulated) time?

Runs the job-domain pipeline with profiling on, builds the deterministic
span profile, and walks what it says: the hottest span paths by self
time, the per-phase rollup, the hot-path work counters (tokenizer calls,
postings intersections, PMI phrase queries, similarity evaluations), and
the per-component round-trip totals. Finishes by writing the profile
JSON plus its collapsed-stack sidecar — the exact input format of
``flamegraph.pl``.

Profiling is strictly read-only: the run's every exported byte is
identical with it on or off; only the artifacts below are new.

Run:  python examples/profile_run.py
"""

import os
import tempfile

from repro import WebIQConfig, WebIQMatcher, build_domain_dataset
from repro.obs import ObsConfig, build_profile, hottest_paths, write_profile


def main() -> None:
    print("Running the job-domain pipeline with profiling on...")
    dataset = build_domain_dataset("job", n_interfaces=6, seed=1)
    result = WebIQMatcher(
        WebIQConfig(obs=ObsConfig(profile=True))).run(dataset)

    profile = build_profile(result)
    det = profile["deterministic"]
    print(f"\nProfile digest (run fingerprint): {profile['digest']}")

    print("\nHottest span paths by simulated self time:")
    for row in hottest_paths(profile, limit=5):
        print(f"  {row['path']:<28} self {row['t_self']:8.1f}s  "
              f"cum {row['t_cum']:8.1f}s  x{row['count']}")

    print("\nPer-phase rollup:")
    for name, phase in det["phases"].items():
        print(f"  {name:<14} {phase['t_cum']:8.1f}s over "
              f"{phase['count']} span(s)")

    print("\nHot-path work counters:")
    for name, count in det["counters"].items():
        print(f"  {name:<26} {count:>8}")

    print("\nRound trips by component:")
    for name, component in det["components"].items():
        print(f"  {name:<14} {component['round_trips']:>6} round trips "
              f"({component['calls']} calls)")

    hottest = hottest_paths(profile, limit=1)[0]
    total = det["clock"]["total_seconds"]
    share = hottest["t_self"] / total if total else 0.0
    print(f"\nVerdict: {hottest['path']!r} is the hottest span — "
          f"{hottest['t_self']:.1f}s self time, {share:.0%} of the run's "
          f"{total:.1f} simulated seconds.")

    out = os.path.join(tempfile.mkdtemp(prefix="webiq-profile-"),
                       "profile.json")
    folded = write_profile(out, profile)
    print(f"\nWrote {out}")
    print(f"Wrote {folded} (feed to flamegraph.pl or speedscope)")


if __name__ == "__main__":
    main()
