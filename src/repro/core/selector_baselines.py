"""Baseline configuration selectors: Fairness, SLSQP, greedy and brute force.

The paper compares its DP selector against two alternatives inside the same
NeRFlex framework (§IV-C): an average-size ("Fairness") allocation and a
sequential-least-squares-programming (SLSQP) solver on the continuous
relaxation of equation (2).  A greedy marginal-utility selector and an
exhaustive brute-force solver are additionally provided as references for
tests and ablations.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.config_space import Configuration
from repro.core.profiler import ObjectProfile, QualityModel, SizeModel
from repro.core.selector import SelectionResult, _fallback_min_assignments, build_result


class FairnessSelector:
    """Average-size allocation: every object gets ``H / n`` MB.

    Within its equal share each object independently picks the
    highest-predicted-quality configuration that fits; objects whose
    cheapest configuration exceeds the share fall back to that cheapest
    configuration.
    """

    method_name = "fairness"

    def select(self, profiles: list, budget_mb: float) -> SelectionResult:
        if not profiles:
            raise ValueError("select() needs at least one object profile")
        if budget_mb <= 0:
            raise ValueError("budget_mb must be positive")
        share = budget_mb / len(profiles)
        assignments = {}
        for profile in profiles:
            config = profile.best_config_within(share)
            assignments[profile.name] = config or profile.config_space.min_config
        return build_result(self.method_name, profiles, assignments, budget_mb)


class GreedySelector:
    """Marginal-utility greedy: repeatedly apply the upgrade with the best
    quality-gain-per-MB that still fits the budget."""

    method_name = "greedy"

    def select(self, profiles: list, budget_mb: float) -> SelectionResult:
        if not profiles:
            raise ValueError("select() needs at least one object profile")
        if budget_mb <= 0:
            raise ValueError("budget_mb must be positive")
        assignments = _fallback_min_assignments(profiles)
        by_name = {profile.name: profile for profile in profiles}

        def total_size(current: dict) -> float:
            return sum(
                by_name[name].predict_size(config) for name, config in current.items()
            )

        while True:
            best_gain_rate = 0.0
            best_upgrade = None
            current_total = total_size(assignments)
            for profile in profiles:
                current_config = assignments[profile.name]
                current_quality = profile.objective_quality(current_config)
                current_size = profile.predict_size(current_config)
                for config in profile.config_space:
                    quality_gain = profile.objective_quality(config) - current_quality
                    size_gain = profile.predict_size(config) - current_size
                    if quality_gain <= 0 or size_gain <= 0:
                        continue
                    if current_total + size_gain > budget_mb:
                        continue
                    rate = quality_gain / size_gain
                    if rate > best_gain_rate:
                        best_gain_rate = rate
                        best_upgrade = (profile.name, config)
            if best_upgrade is None:
                break
            assignments[best_upgrade[0]] = best_upgrade[1]
        return build_result(self.method_name, profiles, assignments, budget_mb)


class BruteForceSelector:
    """Exhaustive search over the joint configuration space (tests only)."""

    method_name = "brute-force"

    def __init__(self, max_combinations: int = 2_000_000) -> None:
        self.max_combinations = int(max_combinations)

    def select(self, profiles: list, budget_mb: float) -> SelectionResult:
        if not profiles:
            raise ValueError("select() needs at least one object profile")
        total_combinations = 1
        for profile in profiles:
            total_combinations *= len(profile.config_space)
        if total_combinations > self.max_combinations:
            raise ValueError(
                f"joint space of {total_combinations} combinations exceeds the "
                f"brute-force limit of {self.max_combinations}"
            )
        best_assignments = None
        best_quality = -np.inf
        spaces = [list(profile.config_space) for profile in profiles]
        for combo in itertools.product(*spaces):
            size = sum(
                profile.predict_size(config) for profile, config in zip(profiles, combo)
            )
            if size > budget_mb:
                continue
            quality = sum(
                profile.objective_quality(config) for profile, config in zip(profiles, combo)
            )
            if quality > best_quality:
                best_quality = quality
                best_assignments = {
                    profile.name: config for profile, config in zip(profiles, combo)
                }
        if best_assignments is None:
            result = build_result(
                self.method_name, profiles, _fallback_min_assignments(profiles), budget_mb
            )
            result.feasible = False
            return result
        return build_result(self.method_name, profiles, best_assignments, budget_mb)


def _continuous_quality(profile: ObjectProfile, g: float, p: float) -> float:
    """Evaluate the detail-weighted quality model at a continuous (g, p) point."""
    weight = getattr(profile, "detail_weight", 1.0)
    model = profile.quality_model
    if isinstance(model, QualityModel):
        return weight * float(model.qmax - model.k / ((g + model.a) * (p + model.b)))
    return weight * float(
        model.predict(Configuration(max(int(round(g)), 2), max(int(round(p)), 1)))
    )


def _continuous_size(profile: ObjectProfile, g: float, p: float) -> float:
    """Evaluate the size model at a continuous (g, p) point."""
    model = profile.size_model
    if isinstance(model, SizeModel):
        return float(model.s0 + model.s1 * g * g + model.s2 * g * g * p * p)
    return float(model.predict(Configuration(max(int(round(g)), 2), max(int(round(p)), 1))))


class SLSQPSelector:
    """Continuous relaxation of equation (2) solved with SLSQP, then rounded.

    The optimisation variables are the continuous ``(g_i, p_i)`` of every
    object; the constraint is the shared size budget.  After the continuous
    solve, each object's configuration is rounded to the nearest discrete
    option and the result is repaired (downgraded greedily) if rounding
    violated the budget.  As the paper observes, the method is sensitive to
    its initial point and to the approximation error of the relaxation,
    which is what produces its occasionally unreasonable allocations.
    """

    method_name = "slsqp"

    def __init__(self, initial: str = "min") -> None:
        if initial not in {"min", "mid"}:
            raise ValueError("initial must be 'min' or 'mid'")
        self.initial = initial

    def select(self, profiles: list, budget_mb: float) -> SelectionResult:
        if not profiles:
            raise ValueError("select() needs at least one object profile")
        if budget_mb <= 0:
            raise ValueError("budget_mb must be positive")

        bounds = []
        x0 = []
        for profile in profiles:
            granularities = profile.config_space.granularities
            patches = profile.config_space.patch_sizes
            bounds.append((granularities[0], granularities[-1]))
            bounds.append((patches[0], patches[-1]))
            if self.initial == "min":
                x0.extend([granularities[0], patches[0]])
            else:
                x0.extend(
                    [
                        granularities[len(granularities) // 2],
                        patches[len(patches) // 2],
                    ]
                )

        def objective(x: np.ndarray) -> float:
            total = 0.0
            for index, profile in enumerate(profiles):
                total += _continuous_quality(profile, x[2 * index], x[2 * index + 1])
            return -total

        def budget_constraint(x: np.ndarray) -> float:
            total = 0.0
            for index, profile in enumerate(profiles):
                total += _continuous_size(profile, x[2 * index], x[2 * index + 1])
            return budget_mb - total

        # Imported here, not with the module: only this selector uses the
        # optimiser, and the baked real-time path never loads it.
        from scipy.optimize import minimize

        solution = minimize(
            objective,
            np.asarray(x0, dtype=np.float64),
            method="SLSQP",
            bounds=bounds,
            constraints=[{"type": "ineq", "fun": budget_constraint}],
            options={"maxiter": 200, "ftol": 1e-7},
        )
        x = solution.x if solution.success else np.asarray(x0, dtype=np.float64)

        assignments = {}
        for index, profile in enumerate(profiles):
            assignments[profile.name] = self._round_to_space(
                profile, x[2 * index], x[2 * index + 1]
            )
        assignments = self._repair(profiles, assignments, budget_mb)
        return build_result(self.method_name, profiles, assignments, budget_mb)

    @staticmethod
    def _round_to_space(profile: ObjectProfile, g: float, p: float) -> Configuration:
        granularity = min(profile.config_space.granularities, key=lambda value: abs(value - g))
        patch = min(profile.config_space.patch_sizes, key=lambda value: abs(value - p))
        return Configuration(granularity, patch)

    @staticmethod
    def _repair(profiles: list, assignments: dict, budget_mb: float) -> dict:
        """Greedy downgrade until the rounded selection fits the budget."""
        by_name = {profile.name: profile for profile in profiles}

        def total_size(current: dict) -> float:
            return sum(
                by_name[name].predict_size(config) for name, config in current.items()
            )

        while total_size(assignments) > budget_mb:
            best_choice = None
            best_loss_rate = np.inf
            for profile in profiles:
                current_config = assignments[profile.name]
                current_size = profile.predict_size(current_config)
                current_quality = profile.objective_quality(current_config)
                for config in profile.config_space:
                    size_gain = profile.predict_size(config) - current_size
                    if size_gain >= 0:
                        continue
                    quality_loss = current_quality - profile.objective_quality(config)
                    loss_rate = quality_loss / (-size_gain)
                    if loss_rate < best_loss_rate:
                        best_loss_rate = loss_rate
                        best_choice = (profile.name, config)
            if best_choice is None:
                break
            assignments[best_choice[0]] = best_choice[1]
        return assignments
