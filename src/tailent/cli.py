"""Batch experiment runner.

Subcommands: entropy | tail | bounds | reparam | sft | thickness | weights |
snake | modulus | verify.  The fields of `ExperimentConfig` but `name` are
the options, each a flag (`--` and the field name with `-` for `_`, or the
short `--map`, `--weight`, `--cantor`, `--rate`, `--tag`) and a key of the
flat key=value config files that flags override.  `_read` reads every
value, flag or file, by the grammar of spec fields (`maps.spec_number`,
`maps.spec_int`), so `1_0`, `nan`, `inf` and non-ASCII digits are config
errors.  Every CSV row carries the schema version and a hash of the
semantic config (output path excluded), so a rerun writing elsewhere
produces a byte-identical file.  Each `run_*` returns (columns, rows) and
`main` writes them, once every row exists, through the stdlib `csv`
writer: a field holding a comma or a quote, such as a `poly:[...]` map
name, is quoted, so every row has the header's field count.  Every run is
single-threaded; `--threads` accepts only 1.

Exit codes: 0 success, 2 config error, 3 numeric/resource error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import math
import sys
from dataclasses import dataclass, fields

from .errors import ConfigError, ResourceError, TailentError

SCHEMA_VERSION = "1"

# Size caps, checked before anything is built (ResourceError, exit 3); the
# p-max cap is `symbolic._SFT_P_CAP`.  `tail` on quadratic:4 with 3 scales
# takes about 11 s at --n-max 1536, and `weights` about 1 s and 84 MB at
# --k-max 10^5 (660 MB at 10^6).
_EPS_COUNT_CAP = 256
_TAIL_N_MAX_CAP, _K_MAX_CAP = 1024, 100_000


@dataclass
class ExperimentConfig:
    name: str
    map_spec: str = "tent"
    sft_spec: str = ""
    weight_spec: str = "kpow2"
    cantor_spec: str = "remove-middle 1/3 depth 12"
    rate_spec: str = "invsqrtlog"
    lambda_u: float = 1.0
    eps_start: float = 0.125
    eps_ratio: float = 0.5
    eps_count: int = 6
    n_max: int = 24
    grid_bits: int = 14
    p_min: int = 3
    p_max: int = 10
    m0: float = 2.0
    k_max: int = 50
    out: str = ""
    verify_tag: str = "full"

    def eps_schedule(self):
        if self.eps_count < 1:
            raise ConfigError("eps-count", "schedule must be nonempty")
        if self.eps_count > _EPS_COUNT_CAP:
            raise ResourceError(f"eps-count {self.eps_count} is over the cap "
                                f"{_EPS_COUNT_CAP}")
        if not 0 < self.eps_ratio < 1:
            raise ConfigError("eps-ratio", "ratio must be in (0,1)")
        if not 0 < self.eps_start < 1:
            raise ConfigError("eps-start", "start must be in (0,1)")
        return [self.eps_start * self.eps_ratio ** k
                for k in range(self.eps_count)]

    def n_range(self, cap=None):
        if self.n_max < 1:
            raise ConfigError("n-max", "must be >= 1")
        if cap is not None and self.n_max > cap:
            raise ResourceError(f"n-max {self.n_max} is over the cap {cap}")
        return range(1, self.n_max + 1)

    def k_range(self):
        # the log_convex column tests 1 <= k <= k_max and needs k_max >= 2
        if self.k_max < 2:
            raise ConfigError("k-max", "must be >= 2")
        if self.k_max > _K_MAX_CAP:
            raise ResourceError(f"k-max {self.k_max} is over the cap "
                                f"{_K_MAX_CAP}")
        return range(self.k_max + 1)

    def checked_grid_bits(self):
        if self.grid_bits < 1:
            raise ConfigError("grid-bits", "must be >= 1")
        return self.grid_bits

    def p_range(self):
        from .symbolic import _SFT_P_CAP
        if self.p_min < 2:
            raise ConfigError("p-min", "must be >= 2")
        if self.p_max < self.p_min:
            raise ConfigError("p-max", "must be >= p-min")
        if self.p_max > _SFT_P_CAP:
            raise ResourceError(f"p-max {self.p_max} (2^{self.p_max - 1} "
                                f"states) is over the cap {_SFT_P_CAP}")
        return range(self.p_min, self.p_max + 1)

    def semantic_items(self):
        return sorted((k, v) for k, v in self.__dict__.items() if k != "out")

    def config_hash(self):
        blob = "\n".join(f"{k}={v}" for k, v in self.semantic_items())
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


# option field -> its type's name; `name` is the experiment, not an option
_OPTIONS = {f.name: f.type for f in fields(ExperimentConfig) if f.name != "name"}
_SHORT = {"map_spec": "map", "weight_spec": "weight", "cantor_spec": "cantor",
          "rate_spec": "rate", "verify_tag": "tag"}


def _flag(field):
    return _SHORT.get(field, field.replace("_", "-"))


def _read(field, text):
    """An option's (or --threads') value from a flag's or a config line's
    text; refused text is a ConfigError under the flag name."""
    from .maps import spec_int, spec_number
    kind = "int" if field == "threads" else _OPTIONS[field]
    try:
        return {"float": spec_number, "int": spec_int}.get(kind, str)(text)
    except ValueError as exc:
        raise ConfigError(_flag(field), str(exc))


def load_config(name, path=None, overrides=None):
    """Experiment `name` with the option defaults, then the `key = value`
    lines of the file at path (a key is an option field, `-` or `_`), then
    the flag texts of overrides (field -> text, or None where not given)."""
    cfg = ExperimentConfig(name=name)
    texts = []
    if path:
        try:
            with open(path) as fh:
                lines = [ln for ln in map(str.strip, fh)
                         if ln and not ln.startswith("#")]
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", str(exc))
        for line in lines:
            if "=" not in line:
                raise ConfigError("config", f"bad line {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _OPTIONS:
                raise ConfigError(key, "unknown config key")
            texts.append((key, value))
    texts += [(k, v) for k, v in (overrides or {}).items() if v is not None]
    for key, text in texts:
        setattr(cfg, key, _read(key, text))
    return cfg


def _write_csv(cfg, columns, rows):
    """Write the header and rows, each led by the schema version and the
    config hash, to cfg.out or else to the current sys.stdout.  Floats are
    written by repr, the rest by str; a field holding a comma or a quote is
    quoted."""
    prefix = [SCHEMA_VERSION, cfg.config_hash()]
    with (open(cfg.out, "w", newline="") if cfg.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["schema", "config", *columns])
        out.writerows(prefix + [repr(v) if isinstance(v, float) else str(v)
                                for v in row] for row in rows)


def _spec(field, parse, *args):
    """parse(*args); a malformed spec's ValueError or OSError is exit 2."""
    try:
        return parse(*args)
    except (ValueError, OSError) as exc:
        raise ConfigError(field, str(exc))


def _map_for(cfg):
    from .maps import get_map
    return _spec("map", get_map, cfg.map_spec)


def run_entropy(cfg):
    from .entropy import _orbit_rows_cap, eps_entropy
    m = _map_for(cfg)
    bits = cfg.checked_grid_bits()
    # the orbit byte cap bounds n-max; checked here because eps_entropy
    # lists all n-max times before it reaches the cap
    ns = cfg.n_range(_orbit_rows_cap(bits))
    ests = [eps_entropy(m, eps, n_range=ns, grid_bits=bits)
            for eps in cfg.eps_schedule()]
    return (["method", "map", "n", "eps", "delta", "count", "rate", "slope",
             "direction"],
            [(est.method, est.map_name, n, est.eps, "", count, est.rate,
              est.slope, est.direction)
             for est in ests for n, count in zip(est.ns, est.counts)])


def run_tail(cfg):
    from .entropy import tail_entropy_estimate
    ns = cfg.n_range(_TAIL_N_MAX_CAP)
    schedule = cfg.eps_schedule()
    m = _map_for(cfg)
    # smallest eps first: its fold-cycle solve covers every period a larger
    # eps reads (`entropy._fold_cycle_centers`); rows keep schedule order
    ests = {eps: tail_entropy_estimate(m, eps, n_range=ns)
            for eps in sorted(schedule)}
    rows = []
    for est in [ests[eps] for eps in schedule]:
        alog = abs(math.log(est.eps))
        rows.append((est.method, est.map_name, est.eps, est.delta,
                     est.counts[-1], est.rate, est.slope, est.direction,
                     est.residual, math.log(2) / alog, math.log(4) / alog))
    return (["method", "map", "eps", "delta", "count", "rate", "slope",
             "direction", "residual", "bound_log2", "bound_log4"], rows)


def run_bounds(cfg):
    from .entropy import (bound_quasionedim, bound_wmulti, growth_rate_R)
    from .rates import cr_bound_buzzi
    m = _map_for(cfg)
    big_r = growth_rate_R(m)
    rows = []
    for eps in cfg.eps_schedule():
        bounds = []
        for bound in (bound_quasionedim, bound_wmulti):
            try:
                bounds.append(bound(m, eps))
            except TailentError:
                bounds.append(math.nan)
        rows.append((m.name, eps, *bounds, big_r,
                     cr_bound_buzzi(big_r, 1, 1), cr_bound_buzzi(big_r, 2, 1)))
    return (["map", "eps", "quasionedim", "wmulti", "growth_R", "buzzi_r1",
             "buzzi_r2"], rows)


def run_reparam(cfg):
    from .acceptance import fixed_reparam_system
    from .polyalg import reparametrize_1d, verify_atlas
    rows = []
    for m_dim in (1, 2, 3):
        for r in range(2, 11):
            atlas = reparametrize_1d(fixed_reparam_system(m_dim, r), r)
            rep = verify_atlas(atlas, 10000)
            rows.append((m_dim, r, atlas.step1_count, atlas.step2_count,
                         atlas.chart_count, rep.max_norm_comp,
                         rep.max_norm_phi, rep.coverage_defect))
    return (["m", "r", "step1", "step2", "charts", "max_norm_comp",
             "max_norm_phi", "defect"], rows)


def run_sft(cfg):
    from .symbolic import build_Yp, sft_entropy, load_sft_file
    if cfg.sft_spec:
        sft = _spec("sft-spec", load_sft_file, cfg.sft_spec)
        rows = [(cfg.sft_spec, "", sft_entropy(sft), "")]
    else:
        rows = [(f"Y_{p}", p, sft_entropy(build_Yp(p)),
                 math.log(2 ** p - 1) / p) for p in cfg.p_range()]
    return ["shift", "p", "entropy", "reference"], rows


def run_thickness(cfg):
    from .symbolic import parse_cantor_spec, thickness
    c = _spec("cantor", parse_cantor_spec, cfg.cantor_spec)
    t = thickness(c)
    return (["spec", "depth", "thickness"],
            [(cfg.cantor_spec, c.depth,
              float(t) if t != math.inf else math.inf)])


def run_weights(cfg):
    from .rates import parse_weight, is_log_convex
    ks = cfg.k_range()
    weight = _spec("weight", parse_weight, cfg.weight_spec)
    convex = is_log_convex(weight, min(cfg.k_max, 120))
    return (["weight", "k", "log_m", "a_k", "log_convex"],
            [(weight.name, k, weight.log_weight(k), weight.a(k), convex)
             for k in ks])


def run_snake(cfg):
    from .maps import build_snake, get_rate
    rate = _spec("rate", get_rate, cfg.rate_spec)
    rows = []
    for eps in cfg.eps_schedule():
        params, sm = _spec("snake", build_snake, rate, eps, cfg.lambda_u)
        rows.append((eps, params.P, params.N, params.M, params.R, params.ell,
                     sm.oscillation_count(), sm.profile_derivative_sup(1),
                     sm.profile_derivative_sup(2),
                     sm.profile_derivative_sup(3)))
    return (["eps", "P", "N", "M", "R", "window", "osc", "profile_d1",
             "profile_d2", "profile_d3"], rows)


def run_modulus(cfg):
    from .entropy import continuity_modulus
    m = _map_for(cfg)
    rows = []
    for eps in cfg.eps_schedule():
        p_eps, n_eps, bound, capped = continuity_modulus(
            m, eps, cfg.m0, lambda t: 1.0 / abs(math.log(t)),
            grid_bits=cfg.checked_grid_bits())
        rows.append((m.name, eps, cfg.m0, p_eps, n_eps, bound, capped))
    return ["map", "eps", "m0", "p_eps", "N_eps", "bound", "capped"], rows


_RUNNERS = {
    "entropy": run_entropy, "tail": run_tail, "bounds": run_bounds,
    "reparam": run_reparam, "sft": run_sft, "thickness": run_thickness,
    "weights": run_weights, "snake": run_snake, "modulus": run_modulus,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tailent",
        description="eps-entropy and tail-entropy experiments for 1-D maps")
    ap.add_argument("experiment", choices=[*_RUNNERS, "verify"])
    ap.add_argument("--config", help="key=value config file")
    # single-threaded only; kept so that scripts passing 1 still run
    ap.add_argument("--threads")
    for field in _OPTIONS:
        ap.add_argument(f"--{_flag(field)}", dest=field)
    return ap


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    try:
        threads = args["threads"]
        if threads is not None and _read("threads", threads) != 1:
            raise ConfigError("threads", f"only 1 is supported, got {threads}")
        cfg = load_config(args["experiment"], args["config"],
                          {k: args[k] for k in _OPTIONS})
        if cfg.name == "verify":
            from .acceptance import verify_all
            return 0 if verify_all(cfg.verify_tag) else 1
        columns, rows = _RUNNERS[cfg.name](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TailentError as exc:
        print(f"numeric/resource error: {exc}", file=sys.stderr)
        return 3
    _write_csv(cfg, columns, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
