"""Checkpoint container: optimizer step, model tensors, Adam moments, and a
JSON echo of the training configuration, in one little-endian binary file."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .binio import MAX_RANK, ContainerError, atomic_open, read_exact, read_magic, \
    read_named_tensor, read_u32, write_magic, write_named_tensor, write_u32

CHECKPOINT_MAGIC = b"SVSCKPT1"


@dataclass
class Checkpoint:
    step: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)  # opaque config echo


def check_tensors(named) -> None:
    """Raise ContainerError naming the first tensor whose rank is above
    MAX_RANK, or that is not finite (with the flat index)."""
    for name, array in named:
        if np.ndim(array) > MAX_RANK:
            raise ContainerError(
                f"implausible tensor rank {np.ndim(array)} for {name!r}")
        finite = np.isfinite(array)
        if not finite.all():
            raise ContainerError(f"checkpoint tensor {name} is not finite at "
                                 f"flat index {finite.argmin()}")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write a checkpoint atomically, after the :func:`check_tensors` of loading."""
    config_blob = json.dumps(ckpt.config, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    named: list[tuple[str, np.ndarray]] = [("step", np.array([float(ckpt.step)]))]
    named += sorted((f"param.{k}", v) for k, v in ckpt.params.items())
    named += sorted((f"adam_m.{k}", v) for k, v in ckpt.adam_m.items())
    named += sorted((f"adam_v.{k}", v) for k, v in ckpt.adam_v.items())
    check_tensors(named)
    with atomic_open(path) as fh:
        write_magic(fh, CHECKPOINT_MAGIC)
        write_u32(fh, len(config_blob))
        fh.write(config_blob)
        write_u32(fh, len(named))
        for name, array in named:
            write_named_tensor(fh, name, array)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        version = read_magic(fh, CHECKPOINT_MAGIC)
        if version != 1:
            raise ContainerError(f"unsupported checkpoint version {version}")
        config_blob = read_exact(fh, read_u32(fh), "config echo")
        try:
            config = json.loads(config_blob.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ContainerError(f"checkpoint config echo is not JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ContainerError("checkpoint config echo is not a JSON object")
        count = read_u32(fh)
        tensors = dict(read_named_tensor(fh) for _ in range(count))
    if "step" not in tensors:
        raise ContainerError("checkpoint has no step counter")
    step = tensors["step"].ravel()
    if step.size != 1 or not (np.isfinite(step[0]) and step[0] >= 0
                              and step[0] % 1 == 0):
        raise ContainerError(f"checkpoint step {step.tolist()} is not a step count")
    groups: dict[str, dict[str, np.ndarray]] = {"param": {}, "adam_m": {}, "adam_v": {}}
    for name, array in tensors.items():
        if name == "step":
            continue
        group, _, rest = name.partition(".")
        if group not in groups or not rest:
            raise ContainerError(f"unexpected tensor {name!r} in checkpoint")
        check_tensors([(name, array)])
        groups[group][rest] = array
    return Checkpoint(
        step=int(step[0]),
        params=groups["param"],
        adam_m=groups["adam_m"],
        adam_v=groups["adam_v"],
        config=config,
    )
