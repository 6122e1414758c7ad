"""Batch experiment runner.

Subcommands: entropy | tail | bounds | reparam | sft | thickness | weights |
snake | modulus | verify.  Configs are flat key=value files plus flag
overrides; every CSV row carries the schema version and a hash of the
semantic config (output path excluded), so a rerun writing elsewhere
produces a byte-identical file.  Every run is single-threaded; `--threads`
accepts only 1.

Exit codes: 0 success, 2 config error, 3 numeric/resource error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass

from .errors import ConfigError, ResourceError, TailentError

SCHEMA_VERSION = "1"

EXPERIMENTS = ("entropy", "tail", "bounds", "reparam", "sft", "thickness",
               "weights", "snake", "modulus", "verify")

# Size caps, checked before anything is built (ResourceError, exit 3); Y_p
# has 2^(p-1) states and takes about 0.8 s and 75 MB at p = 18.  `tail` on
# quadratic:4 with 3 scales takes about 11 s at --n-max 1536, and `weights`
# about 1 s and 84 MB at --k-max 10^5 (660 MB at 10^6).
_EPS_COUNT_CAP, _SFT_P_CAP = 256, 20
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


def _coerce(key, value):
    kind = ExperimentConfig.__dataclass_fields__[key].default
    if isinstance(kind, (int, float)):
        try:
            return type(kind)(value)
        except ValueError:
            raise ConfigError(key, f"expected {type(kind).__name__}, got {value!r}")
    return value


def load_config(name, path=None, overrides=None):
    cfg = ExperimentConfig(name=name)
    if path:
        try:
            with open(path) as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError("config", f"bad line {line!r}")
                    key, value = (s.strip() for s in line.split("=", 1))
                    key = key.replace("-", "_")
                    if key not in ExperimentConfig.__dataclass_fields__:
                        raise ConfigError(key, "unknown config key")
                    setattr(cfg, key, _coerce(key, value))
        except OSError as exc:
            raise ConfigError("config", str(exc))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        setattr(cfg, key, value)
    return cfg


class CsvWriter:
    def __init__(self, path, columns, cfg):
        self.columns = ["schema", "config"] + columns
        self.prefix = [SCHEMA_VERSION, cfg.config_hash()]
        self.rows = []
        self.path = path

    def add(self, *values):
        assert len(values) == len(self.columns) - 2
        self.rows.append(self.prefix + [_fmt(v) for v in values])

    def write(self):
        text = ",".join(self.columns) + "\n"
        text += "".join(",".join(map(str, row)) + "\n" for row in self.rows)
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return text


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _map_for(cfg):
    from .maps import get_map
    try:
        return get_map(cfg.map_spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError("map", str(exc))


def run_entropy(cfg):
    from .entropy import eps_entropy
    m = _map_for(cfg)
    ns = cfg.n_range()
    w = CsvWriter(cfg.out, ["method", "map", "n", "eps", "delta", "count",
                            "rate", "slope", "direction"], cfg)
    ests = [eps_entropy(m, eps, n_range=ns, grid_bits=cfg.checked_grid_bits())
            for eps in cfg.eps_schedule()]
    for est in ests:
        for n, count in zip(est.ns, est.counts):
            w.add(est.method, est.map_name, n, est.eps, "", count,
                  est.rate, est.slope, est.direction)
    w.write()
    return w


def run_tail(cfg):
    from .entropy import tail_entropy_estimate
    ns = cfg.n_range(_TAIL_N_MAX_CAP)
    schedule = cfg.eps_schedule()
    m = _map_for(cfg)
    w = CsvWriter(cfg.out, ["method", "map", "eps", "delta", "count", "rate",
                            "slope", "direction", "residual",
                            "bound_log2", "bound_log4"], cfg)
    # smallest eps first: its fold-cycle solve covers every period a larger
    # eps reads (`entropy._fold_cycle_centers`); rows keep schedule order
    ests = {eps: tail_entropy_estimate(m, eps, n_range=ns)
            for eps in sorted(schedule)}
    for est in [ests[eps] for eps in schedule]:
        alog = abs(math.log(est.eps))
        w.add(est.method, est.map_name, est.eps, est.delta, est.counts[-1],
              est.rate, est.slope, est.direction, est.residual,
              math.log(2) / alog, math.log(4) / alog)
    w.write()
    return w


def run_bounds(cfg):
    from .entropy import (bound_quasionedim, bound_wmulti, growth_rate_R)
    from .rates import cr_bound_buzzi
    m = _map_for(cfg)
    big_r = growth_rate_R(m)
    w = CsvWriter(cfg.out, ["map", "eps", "quasionedim", "wmulti",
                            "growth_R", "buzzi_r1", "buzzi_r2"], cfg)
    for eps in cfg.eps_schedule():
        try:
            wm = bound_wmulti(m, eps)
        except TailentError:
            wm = math.nan
        w.add(m.name, eps, bound_quasionedim(m, eps), wm, big_r,
              cr_bound_buzzi(big_r, 1, 1), cr_bound_buzzi(big_r, 2, 1))
    w.write()
    return w


def run_reparam(cfg):
    from .acceptance import fixed_reparam_system
    from .polyalg import reparametrize_1d, verify_atlas
    w = CsvWriter(cfg.out, ["m", "r", "step1", "step2", "charts",
                            "max_norm_comp", "max_norm_phi", "defect"], cfg)
    for m_dim in (1, 2, 3):
        for r in range(2, 11):
            atlas = reparametrize_1d(fixed_reparam_system(m_dim, r), r)
            rep = verify_atlas(atlas, 10000)
            w.add(m_dim, r, atlas.step1_count, atlas.step2_count,
                  atlas.chart_count, rep.max_norm_comp, rep.max_norm_phi,
                  rep.coverage_defect)
    w.write()
    return w


def run_sft(cfg):
    from .symbolic import build_Yp, sft_entropy, load_sft_file
    w = CsvWriter(cfg.out, ["shift", "p", "entropy", "reference"], cfg)
    if cfg.sft_spec:
        sft = load_sft_file(cfg.sft_spec)
        w.add(cfg.sft_spec, "", sft_entropy(sft), "")
    else:
        for p in cfg.p_range():
            h = sft_entropy(build_Yp(p))
            w.add(f"Y_{p}", p, h, math.log(2 ** p - 1) / p)
    w.write()
    return w


def run_thickness(cfg):
    from .symbolic import parse_cantor_spec, thickness
    try:
        c = parse_cantor_spec(cfg.cantor_spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("cantor", str(exc))
    w = CsvWriter(cfg.out, ["spec", "depth", "thickness"], cfg)
    t = thickness(c)
    w.add(cfg.cantor_spec, c.depth, float(t) if t != math.inf else math.inf)
    w.write()
    return w


def run_weights(cfg):
    from .rates import parse_weight, is_log_convex
    ks = cfg.k_range()
    try:
        weight = parse_weight(cfg.weight_spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError("weight", str(exc))
    w = CsvWriter(cfg.out, ["weight", "k", "log_m", "a_k", "log_convex"], cfg)
    convex = is_log_convex(weight, min(cfg.k_max, 120))
    for k in ks:
        w.add(weight.name, k, weight.log_weight(k), weight.a(k), convex)
    w.write()
    return w


def run_snake(cfg):
    from .maps import build_snake, get_rate
    try:
        rate = get_rate(cfg.rate_spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError("rate", str(exc))
    w = CsvWriter(cfg.out, ["eps", "P", "N", "M", "R", "window", "osc",
                            "profile_d1", "profile_d2", "profile_d3"], cfg)
    for eps in cfg.eps_schedule():
        try:
            params, sm = build_snake(rate, eps, cfg.lambda_u)
        except ValueError as exc:
            raise ConfigError("snake", str(exc))
        w.add(eps, params.P, params.N, params.M, params.R, params.ell,
              sm.oscillation_count(),
              sm.profile_derivative_sup(1), sm.profile_derivative_sup(2),
              sm.profile_derivative_sup(3))
    w.write()
    return w


def run_modulus(cfg):
    from .entropy import continuity_modulus
    m = _map_for(cfg)
    w = CsvWriter(cfg.out, ["map", "eps", "m0", "p_eps", "N_eps", "bound",
                            "capped"], cfg)
    for eps in cfg.eps_schedule():
        p_eps, n_eps, bound, capped = continuity_modulus(
            m, eps, cfg.m0, lambda t: 1.0 / abs(math.log(t)),
            grid_bits=cfg.checked_grid_bits())
        w.add(m.name, eps, cfg.m0, p_eps, n_eps, bound, capped)
    w.write()
    return w


_RUNNERS = {
    "entropy": run_entropy, "tail": run_tail, "bounds": run_bounds,
    "reparam": run_reparam, "sft": run_sft, "thickness": run_thickness,
    "weights": run_weights, "snake": run_snake, "modulus": run_modulus,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tailent",
        description="eps-entropy and tail-entropy experiments for 1-D maps")
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", default=None, help="key=value config file")
    ap.add_argument("--map", dest="map_spec", default=None)
    ap.add_argument("--eps-start", dest="eps_start", type=float, default=None)
    ap.add_argument("--eps-ratio", dest="eps_ratio", type=float, default=None)
    ap.add_argument("--eps-count", dest="eps_count", type=int, default=None)
    ap.add_argument("--n-max", dest="n_max", type=int, default=None)
    ap.add_argument("--grid-bits", dest="grid_bits", type=int, default=None)
    # single-threaded only; kept so that scripts passing 1 still run
    ap.add_argument("--threads", dest="threads", type=int, default=None)
    ap.add_argument("--out", dest="out", default=None)
    ap.add_argument("--sft-spec", dest="sft_spec", default=None)
    ap.add_argument("--weight", dest="weight_spec", default=None)
    ap.add_argument("--cantor", dest="cantor_spec", default=None)
    ap.add_argument("--rate", dest="rate_spec", default=None)
    ap.add_argument("--lambda-u", dest="lambda_u", type=float, default=None)
    ap.add_argument("--p-min", dest="p_min", type=int, default=None)
    ap.add_argument("--p-max", dest="p_max", type=int, default=None)
    ap.add_argument("--m0", dest="m0", type=float, default=None)
    ap.add_argument("--k-max", dest="k_max", type=int, default=None)
    ap.add_argument("--tag", dest="verify_tag", default=None)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("experiment", "config", "threads")}
    try:
        if args.threads not in (None, 1):
            raise ConfigError("threads", f"only 1 is supported, got {args.threads}")
        cfg = load_config(args.experiment, args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.experiment == "verify":
            from .acceptance import verify_all
            return 0 if verify_all(cfg.verify_tag) else 1
        _RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TailentError as exc:
        print(f"numeric/resource error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
