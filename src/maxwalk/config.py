"""Run configuration: a JSON-compatible dict, schema-checked into a dataclass."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .grid import _SPEC_NAMES, DistributionSpec, GridError

_MODES = ("curves", "verify", "charfn", "montecarlo", "density", "decomp")
# The n at which the curves are reported unless n_list is given: those up to n_max.
_DEFAULT_N_LIST = (1, 2, 4, 8, 16, 32, 64)
# (n, smallest n_max that needs it): the curve rows verify reads once n_max
# reaches their section's size (the n = 8 and 64 endpoints, the n >= 32 tail)
_VERIFY_N = ((8, 64), (32, 32), (64, 64))
# Upper bounds that keep a run's arrays allocatable.  A walk holds its sum and
# max laws of grid_points cells each only at the n its caller keeps; verify
# keeps every n, so up to 2 * n_max densities: 1 GiB of float64 at
# n_max * grid_points = 2^26.
_N_MAX_LIMIT = 1024
_WALK_CELLS_LIMIT = 2**26
_MC_SAMPLES_LIMIT = 10**9


class ConfigError(ValueError):
    """Invalid run configuration."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_tuple(key: str, value) -> tuple:
    if isinstance(value, str):  # a string iterates by character
        raise ConfigError(f"{key} must be a list, got {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{key} must be a list, got {value!r}") from None


@dataclass(frozen=True)
class RunConfig:
    mode: str = "verify"
    specs: tuple = _SPEC_NAMES
    spec_parameters: tuple = ()
    n_max: int = 64
    n_list: tuple | None = None  # None: the _DEFAULT_N_LIST entries <= n_max
    grid_points: int = 2**14
    mc_samples: int = 100_000
    seed: int = 20260809
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if isinstance(self.specs, str):
            object.__setattr__(self, "specs", (self.specs,))
        object.__setattr__(self, "specs", _as_tuple("specs", self.specs))
        for name in self.specs:
            if name not in _SPEC_NAMES:
                raise ConfigError(f"unknown spec {name!r}; choose from {_SPEC_NAMES}")
        if not self.specs:
            raise ConfigError("at least one spec is required")
        if len(set(self.specs)) != len(self.specs):
            raise ConfigError(f"specs must not repeat a name; got {list(self.specs)!r}")
        object.__setattr__(
            self, "spec_parameters", _as_tuple("spec_parameters", self.spec_parameters)
        )
        if self.spec_parameters:  # the mixture's; grid checks their format
            try:
                DistributionSpec("mixture", self.spec_parameters)
            except GridError as exc:
                raise ConfigError(f"spec_parameters: {exc}") from exc
        for key in ("n_max", "grid_points", "mc_samples"):
            if not _is_int(getattr(self, key)):
                raise ConfigError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if not 1 <= self.n_max <= _N_MAX_LIMIT:
            raise ConfigError(f"n_max must lie in [1, {_N_MAX_LIMIT}], got {self.n_max}")
        if self.n_list is None:
            n_list = tuple(n for n in _DEFAULT_N_LIST if n <= self.n_max)
        else:
            n_list = _as_tuple("n_list", self.n_list)
        if not n_list:
            raise ConfigError("n_list must not be empty")
        for n in n_list:
            if not _is_int(n) or not 1 <= n <= self.n_max:
                raise ConfigError(f"n_list entries must be integers in [1, n_max]; got {n!r}")
        object.__setattr__(self, "n_list", tuple(sorted(set(n_list))))
        p = self.grid_points
        if p & (p - 1) or not 2**12 <= p <= 2**20:
            raise ConfigError(
                f"grid_points must be a power of two in [2^12, 2^20], got {p}"
            )
        if self.n_max * p > _WALK_CELLS_LIMIT:
            raise ConfigError(
                f"n_max * grid_points must be <= 2^26 (the walk's size), got "
                f"{self.n_max} * {p}"
            )
        if not 10**4 <= self.mc_samples <= _MC_SAMPLES_LIMIT:
            raise ConfigError(f"mc_samples must lie in [1e4, 1e9], got {self.mc_samples}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**63:
            raise ConfigError(f"seed must be an integer in [0, 2^63), got {self.seed!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        if self.mode == "verify":
            missing = [n for n, floor in _VERIFY_N if self.n_max >= floor and n not in n_list]
            if missing:
                raise ConfigError(
                    f"verify at n_max {self.n_max} needs n_list to hold n = {missing}, "
                    "the curve rows its checks read"
                )

    @property
    def diag_ns(self) -> list[int]:
        """The n of the split-quality diagnostics (decomp mode and verify)."""
        return [n for n in (8, 16, 32, 64) if n <= self.n_max] or [self.n_max]

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("specs", "n_list", "spec_parameters"):
            if key in coerced and isinstance(coerced[key], list):
                coerced[key] = tuple(coerced[key])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
