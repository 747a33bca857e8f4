"""Run the proposition harness on a small corpus and replay one failure.

Same engine as `localelab verify`, called as a library. The run is seeded
and byte-deterministic; the replay turns a recorded registry witness back
into the step trace that falsifies the displayed top law. That witness is
the top gap initial-interior records on the TWO -> CHAIN3 map with the
trivial operator, so the replay is its anomaly trace: the image gap
f[L] != M, then "anomaly reproduced".
"""
import json

from localelab.verify import CorpusConfig, replay, run_verification


def main():
    cfg = CorpusConfig(max_poset_size=3, operator_samples_per_frame=25, seed=11)
    report = run_verification(cfg)
    print(f"checks: {len(report['checks'])}")
    for row in report["checks"]:
        print(f"  {row['status']:4s} {row['id']} {row['detail']}")
    confirmed = sum(1 for e in report["registry"] if e["status"] == "confirmed")
    print(f"registry: {confirmed}/{len(report['registry'])} anomalies confirmed")
    print(f"unexplained: {len(report['unexplained'])}")

    print("\nreplay of the mandated top-law counterexample:")
    print(replay(report, "initial-top"))

    blob = json.dumps(report, indent=2, sort_keys=True)
    again = json.dumps(run_verification(cfg), indent=2, sort_keys=True)
    print(f"\nreport bytes: {len(blob)}, second run identical: {blob == again}")


if __name__ == "__main__":
    main()
