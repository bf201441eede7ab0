"""Correctness checks of the tpidp benchmark.

Each check compares one output of the program with something computed
apart from it, or with a property the method must have, and raises
CheckError on a mismatch. test_checks.py feeds each a corrupted output.
"""

import math


class CheckError(Exception):
    pass


def plan_within_budget(points, budget):
    """Every kind costs one budget unit under the default cost model."""
    if len(points) > budget:
        raise CheckError(f"plan of {len(points)} points exceeds budget {budget}")


def score_matches(predicted, recomputed, what, rel=1e-9):
    """The planner's predicted score against a from-scratch recomputation."""
    if not math.isclose(predicted, recomputed, rel_tol=rel, abs_tol=0.0):
        raise CheckError(
            f"{what}: predicted score {predicted!r} differs from the "
            f"recomputed {recomputed!r}")


def same(actual, expected, what):
    if actual != expected:
        raise CheckError(f"{what}: got {actual!r}, expected {expected!r}")


def response_ok(response, request_id):
    """A serve response answers the request it was sent for, with ok."""
    if response.get("id") != request_id:
        raise CheckError(
            f"response id {response.get('id')!r} does not echo request "
            f"id {request_id}")
    if response.get("ok") is not True:
        raise CheckError(f"request {request_id} failed: {response.get('error')}")


def not_below(score, floor, what):
    if score < floor:
        raise CheckError(f"{what}: score {score!r} is below the empty plan's {floor!r}")
