"""Correctness checks applied to every run a repetition produces.

Each check returns a list of human-readable errors; an empty list means
the run passed.  The simulated digest hashes only simulated quantities
(cycles and every window's probe snapshot), so it must be identical
between repetitions of one seed and between traced and untraced runs: a
change that only speeds the simulator up must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json

#: Structures with per-kind (user, kernel) miss accounting in a window.
_STRUCTURES = (("caches", "L1I"), ("caches", "L1D"), ("caches", "L2"),
               ("tlbs", "ITLB"), ("tlbs", "DTLB"), ("btb", None))


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_digest(artifact) -> str:
    """Hash of a run's cycles plus its window probe snapshots."""
    return _hash({"cycles": artifact.cycles,
                  "windows": {name: artifact.window(name)["probes"]
                              for name in ("startup", "steady", "total")}})


def job_digest(artifacts: dict) -> str:
    """Digest of a whole job: its runs' digests, keyed by run label."""
    return _hash({label: artifact_digest(a)
                  for label, a in sorted(artifacts.items())})[:16]


def window_errors(name: str, w: dict, n_contexts: int) -> list[str]:
    """Conservation identities of one counter window."""
    errors = []
    misses = {}
    for group, key in _STRUCTURES:
        stats = w[group] if key is None else w[group][key]
        label = key or group
        acc, mis = stats["accesses"], stats["misses"]
        misses[label] = mis
        for k, kind in enumerate(("user", "kernel")):
            # The program counts accesses and misses; hits are the rest,
            # and every avoided miss is one of those hits.
            hits = acc[k] - mis[k]
            if hits < 0 or mis[k] < 0:
                errors.append(f"{name}.{label}.{kind}: hits {hits} + misses "
                              f"{mis[k]} != accesses {acc[k]}")
            causes = sum(v for c, v in stats["causes"].items()
                         if c.split(":")[0] == str(k))
            if causes != mis[k]:
                errors.append(f"{name}.{label}.{kind}: causes sum to "
                              f"{causes}, misses are {mis[k]}")
            avoided = sum(v for c, v in stats["avoided"].items()
                          if c.split(":")[0] == str(k))
            if avoided > hits:
                errors.append(f"{name}.{label}.{kind}: {avoided} avoided "
                              f"misses exceed {hits} hits")
    l2 = w["caches"]["L2"]["accesses"]
    for k in (0, 1):
        # Every L1 miss, and nothing else, references the L2.
        if l2[k] != misses["L1I"][k] + misses["L1D"][k]:
            errors.append(f"{name}.L2[{k}]: accesses {l2[k]} != L1 misses "
                          f"{misses['L1I'][k] + misses['L1D'][k]}")
    if w["retired"] != sum(w["retired_by_mode"]):
        errors.append(f"{name}: retired {w['retired']} != sum over modes "
                      f"{sum(w['retired_by_mode'])}")
    class_cycles = sum(w["class_cycles"])
    if class_cycles != sum(w["service_cycles"].values()):
        errors.append(f"{name}: class cycles {class_cycles} != service "
                      f"cycles {sum(w['service_cycles'].values())}")
    if class_cycles != w["cycles"] * n_contexts:
        errors.append(f"{name}: class cycles {class_cycles} != cycles x "
                      f"contexts {w['cycles'] * n_contexts}")
    return errors


def run_errors(artifact, item: dict) -> list[str]:
    """Every check on one executed run: completion and conservation."""
    errors = []
    if "truncated" in artifact.flags:
        errors.append("run flagged truncated")
    budget = item["instructions"] + item.get("warmup", 0)
    retired = artifact.total["retired"]
    if retired < budget:
        errors.append(f"retired {retired} < budget {budget}")
    for name in ("startup", "steady", "total"):
        errors.extend(window_errors(name, artifact.window(name),
                                    artifact.n_contexts))
    return errors


def roundtrip_errors(artifact, artifact_cls) -> list[str]:
    """The artifact survives a JSON round trip unchanged."""
    text = json.dumps(artifact.to_json_dict(), sort_keys=True)
    if artifact_cls.from_json_dict(json.loads(text)) != artifact:
        return ["JSON round trip changed the artifact"]
    return []
