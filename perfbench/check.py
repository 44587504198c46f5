"""Checks and quality ratios computed from a finished run directory.

Nothing here imports coft: the files are read with plain numpy and json, and
the students' forward pass is recomputed from their checkpoints, so the check
does not share code with what it checks. Ground truth is read only here, after
the run has returned.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np


def output_digests(run_dir) -> dict:
    """SHA-256 of every checkpoint and label file, by path relative to the run."""
    digests = {}
    for sub in ("checkpoints", "labels"):
        base = os.path.join(run_dir, sub)
        for name in sorted(os.listdir(base)):
            with open(os.path.join(base, name), "rb") as f:
                digests[f"{sub}/{name}"] = hashlib.sha256(f.read()).hexdigest()
    return digests


def metrics_records(run_dir) -> list:
    with open(os.path.join(run_dir, "metrics.jsonl"), "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _payload_path(manifest_path):
    with open(manifest_path, "r", encoding="utf-8") as f:
        m = json.load(f)
    path = os.path.join(os.path.dirname(os.path.abspath(manifest_path)), m["payload_path"])
    return m, path


def read_truth(manifest_path) -> np.ndarray:
    _, payload = _payload_path(manifest_path)
    with open(payload + ".truth", "r", encoding="utf-8") as f:
        return np.array([int(line) for line in f if line.strip()], dtype=np.int64)


def read_embeddings(manifest_path) -> np.ndarray:
    """The image embeddings as the program sees them: loaded rows further than
    1e-12 from unit norm are renormalised, then every row is normalised once
    more when the frozen provider is built."""
    m, payload = _payload_path(manifest_path)
    n, dim = m["num_samples"], m["dim"]
    table = np.fromfile(payload, dtype="<f8").astype(np.float64).reshape(-1, dim)
    emb = table[:n].copy()
    norms = np.linalg.norm(emb, axis=1)
    off = np.abs(norms - 1.0) > 1e-12
    emb[off] = emb[off] / norms[off, None]
    return emb / np.linalg.norm(emb, axis=1, keepdims=True)


def student_logits(stem, x) -> np.ndarray:
    """Residual-MLP student forward pass from a checkpoint pair."""
    with open(stem + ".json", "r", encoding="utf-8") as f:
        manifest = json.load(f)
    raw = np.fromfile(stem + ".f64le", dtype="<f8")
    t = {}
    for e in manifest["params"]:
        size = int(np.prod(e["shape"]))
        start = e["offset"] // 8
        t[e["name"].split("/", 1)[-1]] = raw[start:start + size].reshape(e["shape"]).copy()
    hidden = np.tanh(x @ t["fft_w1"].T + t["fft_b1"])
    encoded = x + hidden @ t["fft_w2"].T + t["fft_b2"]
    return encoded @ t["fft_w_fc"].T + t["fft_b_fc"]


def _labels(path):
    """(sample ids, labels, clean mask) of one label file."""
    ids, labels, clean = [], [], []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                ids.append(r["sample_id"])
                labels.append(r["label"])
                clean.append(r["status"] == "clean")
    return np.array(ids, dtype=np.int64), np.array(labels, dtype=np.int64), np.array(clean)


def quality(run_dir, manifest_path, truth, labels=True) -> dict:
    """Accuracy of both students and their mean-logit ensemble and, with
    `labels`, the label-quality ratios of `label_quality`."""
    out = {}
    x = read_embeddings(manifest_path)
    logits = {}
    for sid in ("student1", "student2"):
        logits[sid] = student_logits(os.path.join(run_dir, "checkpoints", f"phase2_{sid}"), x)
        out[f"train.student.{sid}_acc"] = float(np.mean(np.argmax(logits[sid], axis=1) == truth))
    ensemble = np.argmax((logits["student1"] + logits["student2"]) / 2.0, axis=1)
    out["ensemble_acc"] = float(np.mean(ensemble == truth))
    if labels:
        out.update(label_quality(os.path.join(run_dir, "labels"), truth))
    return out


def label_quality(labels_dir, truth) -> dict:
    """Label quality along the pipeline, each a ratio of useful over attempted.

    `clean_precision` averages the two filter directions; the other ratios
    pool both models or directions.
    """
    hits = total = 0
    for name in sorted(os.listdir(labels_dir)):
        if name.endswith("_selected.jsonl"):
            ids, labels, _ = _labels(os.path.join(labels_dir, name))
            hits += int(np.sum(labels == truth[ids]))
            total += ids.size
    out = {"pseudo.topk_precision": hits / total}

    precisions = []
    gen_hits = gen_total = kept = kept_hits = 0
    for mid in ("model1", "model2"):
        ids, labels, clean = _labels(os.path.join(labels_dir, f"filter_{mid}.jsonl"))
        correct = labels == truth[ids]
        precisions.append(float(np.mean(correct[clean])))
        gen_hits += int(np.sum(correct))
        gen_total += ids.size
        kept += int(np.sum(clean))
        kept_hits += int(np.sum(correct & clean))
    out["clean_precision"] = float(np.mean(precisions))
    out["train.phase1.gen_acc"] = gen_hits / gen_total
    out["train.filter.keep_ratio"] = kept / gen_total
    out["train.filter.clean_recall"] = kept_hits / gen_hits
    return out
