"""Experiment configuration: flat key-value files with section headers
(INI as parsed by configparser), plus the shipped benchmark presets.

Grammar (values by example):
    numbers       nu = 0.0955        lists    frequencies = 1, 5
    ranges        amplitudes = -8 .. 8          (integer grid, zero skipped)
    distributions amplitudes = uniform: -10, 10
    schedules     schedule = auto: 10 @ 100, 50 @ 400
                  schedule = pairs: 0:10 100:20 200:40
    booleans      use_magnitude = true

Every key is documented in the README and in `dpawno <cmd> --help`.
"""

import configparser
from dataclasses import dataclass
from importlib import resources


from . import physics as ph
from . import wavelet as wv
from . import wno as wno_mod
from .datagen import IcFamily
from .errors import UsageError
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
        raw = self.parser.get(section, key)
        if cast is bool:
            word = raw.strip().lower()
            if word not in self.parser.BOOLEAN_STATES:
                raise UsageError(f"[{section}] {key} must be one of "
                                 f"{'/'.join(self.parser.BOOLEAN_STATES)}, got {raw!r}")
            return self.parser.BOOLEAN_STATES[word]
        return cast(raw)

    @property
    def seed(self) -> int:
        return self._get("run", "seed", int)

    @property
    def benchmark(self) -> str:
        return self._get("run", "benchmark")

    def full_spec(self) -> ph.PdeSpec:
        return self._spec(ph.BENCHMARK_TERMS[self.benchmark])

    def partial_spec(self) -> ph.PdeSpec:
        terms = tuple(self._get("pde", "partial_terms").replace(",", " ").split())
        return self._spec(terms)

    def data_only_spec(self) -> ph.PdeSpec:
        return self._spec(())

    def _spec(self, terms) -> ph.PdeSpec:
        bench = self.benchmark
        param_keys = {"burgers1d": ("nu",), "nagumo": ("epsilon", "alpha"),
                      "allen_cahn": ("gamma",), "burgers2d": ("nu",)}[bench]
        params = {k: self._get("pde", k, float) for k in param_keys}
        domain = tuple(_parse_number_list(self._get("pde", "domain")))
        ny = self._get("pde", "ny", int, 0) or None
        return ph.PdeSpec(
            benchmark=bench,
            params=params,
            terms=terms,
            bc=self._get("pde", "bc"),
            bc_value=self._get("pde", "bc_value", float, 0.0),
            domain=domain,
            nx=self._get("pde", "nx", int),
            ny=ny,
            dt=self._get("pde", "dt", float),
            advection_scheme=self._get("pde", "advection", str, "central"),
        )

    def families(self, role: str):
        """IC families from the [ic.<role>.N] sections, in order."""
        out = []
        sections = sorted(
            (s for s in self.parser.sections() if s.startswith(f"ic.{role}.")),
            key=lambda s: int(s.rsplit(".", 1)[1]))
        for section in sections:
            kind = self.parser.get(section, "kind")
            count = self.parser.getint(section, "count")
            if kind in ("cosine", "sine"):
                out.append(IcFamily(
                    kind, count,
                    amplitudes=parse_amplitudes(self.parser.get(section, "amplitudes")),
                    frequencies=_parse_number_list(self.parser.get(section, "frequencies")),
                ))
            elif kind in ("square2d", "shape2d"):
                out.append(IcFamily(
                    kind, count,
                    amplitudes=parse_amplitudes(self.parser.get(section, "value")),
                    shape=self.parser.get(section, "shape", fallback="square"),
                ))
            elif kind == "grf":
                out.append(IcFamily(kind, count, grf=self._grf_from(section)))
            else:
                raise UsageError(f"unknown IC kind {kind!r} in [{section}]")
        if not out:
            raise UsageError(f"no [ic.{role}.N] sections configured")
        return out

    @property
    def n_train(self) -> int:
        return self._get("data", "n_train", int)

    @property
    def nt_train(self) -> int:
        return self._get("data", "nt_train", int)

    @property
    def n_test(self) -> int:
        return self._get("data", "n_test", int)

    @property
    def nt_test(self) -> int:
        return self._get("data", "nt_test", int)

    def wno_config(self) -> wno_mod.WnoConfig:
        spatial = 2 if self.benchmark == "burgers2d" else 1
        state_channels = 2 if self.benchmark == "burgers2d" else 1
        return wno_mod.WnoConfig(
            width=self._get("wno", "width", int),
            layers=self._get("wno", "layers", int),
            wavelet=wv.WaveletSpec(
                self._get("wno", "family", str, "db6"),
                self._get("wno", "levels", int),
                self._get("wno", "extension", str, "periodic"),
            ),
            fc1_dim=self._get("wno", "fc1_dim", int),
            in_channels=state_channels + spatial,
            out_channels=state_channels,
            spatial_dims=spatial,
            bands=self._get("wno", "bands", str, "coarsest"),
        )

    def train_config(self) -> TrainConfig:
        clip = self._get("train", "grad_clip", float, 10.0)
        return TrainConfig(
            epochs=self._get("train", "epochs", int),
            unroll_schedule=parse_schedule(self._get("train", "schedule")),
            batch_size=self._get("train", "batch_size", int, 8),
            learning_rate=self._get("train", "learning_rate", float),
            seed=self.seed,
            checkpoint_every=self._get("train", "checkpoint_every", int, 0),
            grad_clip_norm=None if clip <= 0 else clip,
        )

    def _grf_from(self, section) -> GrfSpec:
        return GrfSpec(
            kernel=self.parser.get(section, "kernel"),
            alpha=self.parser.getfloat(section, "alpha"),
            length_scale=self.parser.getfloat(section, "length_scale"),
            periodicity=self.parser.getfloat(section, "periodicity", fallback=1.0),
            jitter=self.parser.getfloat(section, "jitter", fallback=1e-8),
        )

    def grf_spec(self) -> GrfSpec:
        return self._grf_from("grf")

    def limit_state(self) -> LimitState:
        return LimitState(
            threshold=self._get("limit_state", "threshold", float),
            horizon=self._get("limit_state", "horizon", int),
            use_magnitude=self._get("limit_state", "use_magnitude", bool, True),
        )

    @property
    def reliability_n(self) -> int:
        n = self._get("reliability", "n", int, 1000)
        if n < 1:
            raise UsageError(f"[reliability] n must be >= 1, got {n}")
        return n

    @property
    def diverged_as_failure(self) -> bool:
        return self._get("reliability", "diverged_as_failure", bool, True)

    def probes(self):
        """(x*, t*) pairs; x* is (x, y) for 2D benchmarks."""
        times = [int(v) for v in _parse_number_list(self._get("probe", "t"))]
        if self.benchmark == "burgers2d":
            x = self._get("probe", "x", float)
            y = self._get("probe", "y", float)
            return [((x, y), t) for t in times]
        x = self._get("probe", "x", float)
        return [(x, t) for t in times]

    @property
    def eval_steps(self) -> int:
        return self._get("eval", "steps", int, 100)

    def snapshots(self):
        return [int(v) for v in _parse_number_list(self._get("eval", "snapshots"))]


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
        name = str(path)
    else:
        raise UsageError("either a preset name or a config path is required")
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"override {item!r} is not SECTION.KEY=VALUE")
        key, value = item.split("=", 1)
        section, option = key.rsplit(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), option.strip(), value.strip())
    return ExperimentConfig(parser, name)
