"""Experiment configuration: flat key-value files with section headers
(INI as parsed by configparser), plus the shipped benchmark presets.

Grammar (values by example):
    numbers       nu = 0.0955        lists    frequencies = 1, 5
    ranges        amplitudes = -8 .. 8          (integer grid, zero skipped)
    distributions amplitudes = uniform: -10, 10
    schedules     schedule = auto: 10 @ 100, 50 @ 400
                  schedule = pairs: 0:10 100:20 200:40

Every key is listed in KEYS, documented in the README and in
`dpawno <cmd> --help`. load_config rejects any other section or key, and
any key that the benchmark or the family's kind (datagen.IC_KINDS) never reads.

The [pde], [wno], [train], [grf] and [limit_state] sections are read straight
into PdeSpec, WnoConfig, TrainConfig, GrfSpec and LimitState: each key names
a field and is cast by its annotation, and a key may be omitted only where
its field has a default, which is then the one place that default is stated.
Besides those, only [eval] steps (100) and [reliability] n (1000) may be
omitted; a missing required key is a UsageError naming it.

Fixed in the code, with no key: the db6 wavelet family; gradient clipping
at global norm 10 (training.GRAD_CLIP_NORM); and the GRF Cholesky jitter,
1e-8 (reliability.JITTER), ten times larger on each retry up to 1e-4, and
jitter/alpha on the axes after x.
"""

import configparser
import re
from dataclasses import MISSING, dataclass, fields
from importlib import resources


from . import physics as ph
from . import wno as wno_mod
from .datagen import IC_KINDS, IcFamily
from .errors import UnsupportedTermForBenchmark, UsageError
from .reliability import GrfSpec, LimitState
from .training import TrainConfig, default_schedule

PRESETS = (
    "burgers1d-missing-advection",
    "burgers1d-missing-diffusion",
    "nagumo-missing-reaction",
    "nagumo-missing-diffusion",
    "allen-cahn-missing-reaction",
    "allen-cahn-missing-diffusion",
    "burgers2d-missing-xdiff",
    "burgers1d-missing-diffusion-desk",
)


def _benchmark_keys(bench):
    """The [pde] and [probe] keys `bench` reads: its constants, `advection`
    with that term, one grid size and probe coordinate per axis."""
    axes = "xy" if bench in ph.BENCHMARKS_2D else "x"
    pde = ph.BENCHMARK_PARAMS[bench] + tuple("n" + axis for axis in axes) + (
        "dt", "bc", "bc_value", "domain", "partial_terms")
    pde += ("advection",) * ("advection" in ph.BENCHMARK_TERMS[bench])
    return {"pde": pde, "probe": (*axes, "t")}


def _union(groups):
    return tuple(dict.fromkeys(key for keys in groups for key in keys))


_BENCHMARK_KEYS = {bench: _benchmark_keys(bench) for bench in ph.BENCHMARK_TERMS}
_IC_KEYS = ("kind", "count") + _union(IC_KINDS.values())
# Every section and key the program reads in some context; [ic.train.N] and
# [ic.test.N] stand for every numbered family section.
KEYS = {
    "run": ("seed", "benchmark"),
    "pde": _union(keys["pde"] for keys in _BENCHMARK_KEYS.values()),
    "data": ("n_train", "nt_train", "n_test", "nt_test"),
    "ic.train.N": _IC_KEYS,
    "ic.test.N": _IC_KEYS,
    "wno": ("width", "layers", "levels", "fc1_dim", "bands"),
    "train": ("epochs", "learning_rate", "batch_size", "schedule"),
    "probe": _union(keys["probe"] for keys in _BENCHMARK_KEYS.values()),
    "eval": ("steps", "snapshots"),
    "grf": ("kernel", "alpha", "length_scale", "periodicity"),
    "limit_state": ("threshold", "horizon"),
    "reliability": ("n",),
}


def _check_keys(parser: configparser.ConfigParser):
    """UsageError naming every [DEFAULT] entry, section and key that KEYS
    does not list or that its context (the benchmark, the family's kind)
    never reads: the program would silently ignore them."""
    defaults = parser.defaults()
    bench = parser.get("run", "benchmark", raw=True, fallback=None)
    unknown = [f"[DEFAULT] {key}" for key in defaults]
    for section in parser.sections():
        entry = re.sub(r"\.\d+$", ".N", section)
        # the placeholder itself names no section
        if entry not in KEYS or section.endswith(".N"):
            unknown.append(f"[{section}]")
            continue
        # an unknown benchmark or kind is reported where it is read
        read, context = KEYS[entry], None
        kind = parser.get(section, "kind", raw=True, fallback=None)
        if entry in ("pde", "probe") and bench in _BENCHMARK_KEYS:
            read, context = _BENCHMARK_KEYS[bench][entry], f"benchmark {bench}"
        elif entry.startswith("ic.") and kind in IC_KINDS:
            read, context = ("kind", "count") + IC_KINDS[kind], f"kind {kind}"
        unknown += [f"[{section}] {key}" + (f" (not read by {context})"
                                            if key in KEYS[entry] else "")
                    for key in parser.options(section)
                    if key not in defaults and key not in read]
    if unknown:
        raise UsageError(f"unknown config section or key: {', '.join(unknown)}")


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return resources.files("dpawno").joinpath(f"presets/{name}.ini").read_text()


def _parse_number_list(text: str):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_amplitudes(text: str):
    text = text.strip()
    if text.startswith("uniform:"):
        lo, hi = _parse_number_list(text[len("uniform:"):])
        return ("uniform", lo, hi)
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        return tuple(float(a) for a in range(lo, hi + 1) if a != 0)
    return _parse_number_list(text)


def parse_schedule(text: str):
    text = text.strip()
    try:
        if text.startswith("auto:"):
            (t0, hold), (tmax, reach) = (
                [int(float(v)) for v in part.split("@")]
                for part in text[len("auto:"):].split(","))
            return default_schedule(t0, hold, tmax, reach)
        if text.startswith("pairs:"):
            return tuple((int(e), int(t)) for e, t in
                         (tok.split(":") for tok in text[len("pairs:"):].split()))
    except ValueError as exc:
        raise UsageError(f"cannot parse schedule {text!r}: {exc}") from exc
    raise UsageError(f"cannot parse schedule {text!r} (use auto:... or pairs:...)")


@dataclass
class ExperimentConfig:
    """Typed view over one parsed configuration."""

    parser: configparser.ConfigParser
    name: str

    # -- sections ----------------------------------------------------------
    def _get(self, section, key, cast=str, default=None):
        if not self.parser.has_option(section, key):
            if default is not None:
                return default
            raise UsageError(f"missing config key [{section}] {key}")
        try:
            return cast(self.parser.get(section, key))
        # a lone '%' in the value, or a number that does not parse
        except (configparser.Error, ValueError) as exc:
            raise UsageError(f"[{section}] {key}: {exc}") from exc

    def _read(self, cls, section, **given):
        """A `cls` whose fields outside `given` come from the [section] keys
        of their names, each cast by its field's annotation; a key may be
        omitted only where its field has a default."""
        for field in fields(cls):
            if field.name not in given and (
                    field.default is MISSING
                    or self.parser.has_option(section, field.name)):
                given[field.name] = self._get(section, field.name, field.type)
        return cls(**given)

    def _steps(self, section, key):
        """The whole step numbers listed under [section] key."""
        values = self._get(section, key, _parse_number_list)
        for v in values:
            if not v.is_integer():  # False for inf and NaN
                raise UsageError(f"[{section}] {key} must list whole step "
                                 f"numbers, got {v}")
        return [int(v) for v in values]

    def _count(self, section, key, default=None) -> int:
        """An integer key that must be at least 1."""
        n = self._get(section, key, int, default)
        if n < 1:
            raise UsageError(f"[{section}] {key} must be >= 1, got {n}")
        return n

    @property
    def seed(self) -> int:
        return self._get("run", "seed", int)

    @property
    def benchmark(self) -> str:
        bench = self._get("run", "benchmark")
        if bench not in ph.BENCHMARK_TERMS:
            raise UsageError(f"unknown benchmark {bench!r}; choose from "
                             f"{', '.join(ph.BENCHMARK_TERMS)}")
        return bench

    def full_spec(self) -> ph.PdeSpec:
        return self._spec(ph.BENCHMARK_TERMS[self.benchmark])

    def partial_spec(self) -> ph.PdeSpec:
        terms = tuple(self._get("pde", "partial_terms").replace(",", " ").split())
        return self._spec(terms)

    def data_only_spec(self) -> ph.PdeSpec:
        return self._spec(())

    def _spec(self, terms) -> ph.PdeSpec:
        bench = self.benchmark
        try:
            return self._read(
                ph.PdeSpec, "pde", benchmark=bench, terms=terms,
                params={k: self._get("pde", k, float)
                        for k in ph.BENCHMARK_PARAMS[bench]},
                domain=_parse_number_list(self._get("pde", "domain")))
        except UnsupportedTermForBenchmark as exc:  # a partial_terms typo
            raise UsageError(str(exc)) from exc

    def families(self, role: str):
        """IC families from the [ic.<role>.N] sections, in order."""
        out = []
        sections = sorted(
            (s for s in self.parser.sections() if s.startswith(f"ic.{role}.")),
            key=lambda s: int(s.rsplit(".", 1)[1]))
        for section in sections:
            kind = self._get(section, "kind")
            if kind not in IC_KINDS:
                raise UsageError(f"unknown IC kind {kind!r} in [{section}]")
            count = self._count(section, "count")
            amplitudes, *frequencies = (self._get(section, key)
                                        for key in IC_KINDS[kind])
            try:
                out.append(IcFamily(kind, count, parse_amplitudes(amplitudes),
                                    *map(_parse_number_list, frequencies)))
            except ValueError as exc:
                raise UsageError(f"[{section}] {exc}") from exc
        if not out:
            raise UsageError(f"no [ic.{role}.N] sections configured")
        return out

    @property
    def n_train(self) -> int:
        return self._get("data", "n_train", int)

    @property
    def nt_train(self) -> int:
        return self._count("data", "nt_train")

    @property
    def n_test(self) -> int:
        return self._get("data", "n_test", int)

    @property
    def nt_test(self) -> int:
        return self._count("data", "nt_test")

    def wno_config(self) -> wno_mod.WnoConfig:
        # every term set shares one state shape; this spec reads the fewest keys
        return self._read(wno_mod.WnoConfig, "wno",
                          **wno_mod.io_fields(self.data_only_spec().state_shape()))

    def train_config(self) -> TrainConfig:
        return self._read(TrainConfig, "train", seed=self.seed,
                          unroll_schedule=parse_schedule(self._get("train", "schedule")))

    def grf_spec(self) -> GrfSpec:
        return self._read(GrfSpec, "grf")

    def limit_state(self) -> LimitState:
        return self._read(LimitState, "limit_state")

    @property
    def reliability_n(self) -> int:
        return self._count("reliability", "n", 1000)

    def probes(self):
        """(x*, t*) pairs; x* is a location in the order of
        physics.PdeSpec.grid(): (x,) in 1D, (x, y) in 2D, each coordinate
        finite and within the [pde] domain interval."""
        times = self._steps("probe", "t")
        spec = self.data_only_spec()
        lo, hi = spec.domain
        location = tuple(self._get("probe", axis, float)
                         for axis in "xy"[:len(spec.spatial_shape())])
        for axis, value in zip("xy", location):
            # NaN fails both comparisons
            if not lo <= value <= hi:
                raise UsageError(f"[probe] {axis} must lie in the [pde] domain "
                                 f"[{lo}, {hi}], got {value}")
        return [(location, t) for t in times]

    @property
    def eval_steps(self) -> int:
        return self._count("eval", "steps", 100)

    def snapshots(self):
        times = self._steps("eval", "snapshots")
        if any(t < 1 for t in times):
            raise UsageError(f"[eval] snapshots must be steps >= 1, got {times}")
        return times


def load_config(preset: str = None, path=None, overrides=()) -> ExperimentConfig:
    """Build a configuration from a shipped preset or a file, then apply
    SECTION.KEY=VALUE overrides."""
    parser = configparser.ConfigParser()
    if preset is not None:
        parser.read_string(preset_text(preset))
        name = preset
    elif path is not None:
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:  # a duplicate section, bad syntax
            raise UsageError(f"malformed config {path}: {exc}") from exc
        name = str(path)
    else:
        raise UsageError("either a preset name or a config path is required")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"override {item!r} is not SECTION.KEY=VALUE")
        key, value = item.split("=", 1)
        section, option = (part.strip() for part in key.rsplit(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value.strip())
    _check_keys(parser)
    return ExperimentConfig(parser, name)
