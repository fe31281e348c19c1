"""Per-layer metrics from the spans of one traced pass.

Each metric names the end-to-end metric and workload it is predicted to
move, written down before any optimisation is measured.  "self" time is
a span's duration minus the time covered by its traced child spans;
"incl" time is the whole duration of the outermost span of that name,
so nested calls are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

STAGES = ("hypotheses", "fitting", "symmetric", "rees", "rees_cm", "spread",
          "shortcut")

# name, unit, prediction (end-to-end metric on workload)
METRICS = (
    ("groebner.basis_s", "s",
     "self time of basis builds; wall_ref on probe (primary) and corpus"),
    ("groebner.steps", "count",
     "exact StepCounter.spend units; wall_ref on probe and corpus"),
    ("groebner.basis_builds", "count",
     "bases built, cache answers excluded; wall_ref on probe and corpus"),
    ("groebner.duplicate_ratio", "ratio",
     "builds repeating (context, order, generators) of an earlier build of "
     "the instance; a shared cache moves wall_ref on probe and corpus, "
     "peak_rss_mb on random-ci"),
    ("groebner.max_basis_len", "count",
     "largest basis built; explains stalls, failed on random-ci"),
    ("groebner.max_coeff_bits", "bits",
     "largest coefficient in a built basis; explains stalls, failed on "
     "random-ci"),
    ("groebner.normal_form_calls", "count", "wall_ref on probe"),
    ("groebner.normal_form_s", "s", "self time; wall_ref on probe"),
    ("groebner.saturation_s", "s",
     "incl, saturation and saturation_by_ideal; wall_ref and failed on "
     "random-ci; 0 on probe"),
    ("groebner.intersection_s", "s",
     "incl; wall_ref and failed on random-ci; 0 on probe"),
    ("groebner.dimension_s", "s",
     "self time of krull_dimension; small everywhere"),
    ("matrix.minors_s", "s", "self time; about 1% of probe, little change"),
    ("matrix.minors_calls", "count", "outermost minors/minor calls"),
    ("algebra.validate_s", "s",
     "incl, validation runs twice per case; wall_ref on corpus and probe"),
    ("algebra.is_reduced_s", "s", "incl; wall_ref on corpus"),
    ("fitting.profile_s", "s", "incl; failed on random-ci"),
    ("fitting.probe_s", "s", "incl last_rows_probe; wall_ref on probe"),
    ("rees.test_element_s", "s", "incl; wall_ref on corpus and random-ci"),
    ("rees.test_element_draws", "count",
     "nonzerodivisor checks per test element found; wall_ref on corpus and "
     "random-ci"),
    ("rees.saturation_s", "s",
     "incl saturation inside rees_ideal; wall_ref on corpus and random-ci"),
    ("rees.spread_s", "s", "incl; wall_ref on corpus and random-ci"),
    ("resolution.free_resolution_s", "s",
     "self, module engine and minimisation; wall_ref on corpus and "
     "random-ci; 0 on probe"),
) + tuple(
    (f"verifier.stage.{stage}_s", "s",
     "Report.timings of untraced passes, summed over instances")
    for stage in STAGES
) + (
    ("harness.deadline_hits", "count",
     "instance runs that hit the deadline, the known random-ci stalls; "
     "ROADMAP item 2 brings it to 0 on random-ci"),
    ("trace.overhead_s", "s",
     "median traced minus median untraced pass time, golden instances"),
)

# Counters that must repeat exactly between two traced passes.
EXACT = ("groebner.steps", "groebner.basis_builds", "groebner.max_basis_len",
         "groebner.max_coeff_bits", "groebner.normal_form_calls",
         "groebner.duplicate_ratio", "matrix.minors_calls",
         "rees.test_element_draws")


def span_metrics(spans, steps, keep):
    """Metrics of one traced pass.

    `spans` holds [instance, name, start, end, parent, attrs] records with
    parent indices into the same list.  Only spans of the instances in
    `keep`, those that completed, are counted, so exact counters do not
    depend on where a deadline fell.  `steps` is the total of
    StepCounter.spend over those instances.
    """
    self_t = defaultdict(float)
    incl_t = defaultdict(float)
    outer_calls = defaultdict(int)
    child_t = [0.0] * len(spans)
    ancestors = []
    for idx, (_, name, start, end, parent, _attrs) in enumerate(spans):
        if parent >= 0:
            child_t[parent] += end - start
            ancestors.append(ancestors[parent] | {spans[parent][1]})
        else:
            ancestors.append(frozenset())
    builds = dups = max_len = max_bits = 0
    draws = elements = 0
    rees_saturation = 0.0
    for idx, (instance, name, start, end, parent, attrs) in enumerate(spans):
        if instance not in keep:
            continue
        duration = end - start
        self_t[name] += duration - child_t[idx]
        above = ancestors[idx]
        if name not in above:
            incl_t[name] += duration
            outer_calls[name] += 1
        if name == "groebner.basis" and attrs:
            builds += 1
            dups += attrs["dup"]
            max_len = max(max_len, attrs["len"])
            max_bits = max(max_bits, attrs["bits"])
        elif name == "algebra.nonzerodivisor_check" \
                and "rees.test_element" in above:
            draws += 1
        elif name == "rees.test_element":
            elements += 1
        elif (name == "groebner.saturation" and name not in above
              and "rees.rees_ideal" in above):
            rees_saturation += duration
    return {
        "groebner.basis_s": self_t["groebner.basis"],
        "groebner.steps": steps,
        "groebner.basis_builds": builds,
        "groebner.duplicate_ratio": dups / builds if builds else 0.0,
        "groebner.max_basis_len": max_len,
        "groebner.max_coeff_bits": max_bits,
        "groebner.normal_form_calls": outer_calls["groebner.normal_form"],
        "groebner.normal_form_s": self_t["groebner.normal_form"],
        "groebner.saturation_s": incl_t["groebner.saturation"],
        "groebner.intersection_s": incl_t["groebner.intersection"],
        "groebner.dimension_s": self_t["groebner.dimension"],
        "matrix.minors_s": self_t["matrix.minors"],
        "matrix.minors_calls": outer_calls["matrix.minors"],
        "algebra.validate_s": incl_t["algebra.validate"],
        "algebra.is_reduced_s": incl_t["algebra.is_reduced"],
        "fitting.profile_s": incl_t["fitting.profile"],
        "fitting.probe_s": incl_t["fitting.probe"],
        "rees.test_element_s": incl_t["rees.test_element"],
        "rees.test_element_draws": draws / elements if elements else 0.0,
        "rees.saturation_s": rees_saturation,
        "rees.spread_s": incl_t["rees.spread"],
        "resolution.free_resolution_s":
            self_t["resolution.free_resolution"],
    }


def stage_metrics(timings_per_instance):
    """Sum Report.timings over the instances of one pass."""
    out = {f"verifier.stage.{stage}_s": 0.0 for stage in STAGES}
    for timings in timings_per_instance:
        for stage, seconds in timings.items():
            key = f"verifier.stage.{stage}_s"
            if key in out:
                out[key] += seconds
    return out
