"""Closed-form heat kernels for the flat periodic models.

The circle kernel is the wrapped Gaussian.  Its log-gradient and
log-time-derivative are evaluated from the image sum in a numerically
stable way: weights over images are formed by softmax, so the results
stay meaningful at nodes where the kernel value itself underflows double
precision.  The 2-torus kernel is the product of two circle kernels.
All three functions take their time through one image sum, which applies
the time rule of :mod:`wittenlab.geometry`: a time that is not a finite
positive number raises ``ValueError`` naming ``t``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _check_time

__all__ = [
    "wrapped_gaussian",
    "wrapped_gaussian_log_dx",
    "wrapped_gaussian_log_dt",
]

# Smallest value stored for kernel samples; positive stand-in for values
# whose true magnitude underflows double precision.
TINY = np.finfo(float).tiny


def _image_displacements(theta, t, L):
    """Displacements theta - j*L over enough images for full precision, at a
    time ``t`` that passes the time rule."""
    _check_time("t", t)
    theta = np.asarray(theta, dtype=float)
    reach = math.sqrt(4.0 * t * 800.0)  # exp(-800) underflows comfortably
    n_img = max(1, int(math.ceil((reach + L) / L)))
    j = np.arange(-n_img, n_img + 1)
    return theta[..., None] - L * j


def _image_weights(theta, t, L):
    """The displacements d of :func:`_image_displacements` and their softmax
    weights exp(-d^2 / 4t) / sum over the images."""
    d = _image_displacements(theta, t, L)
    e = -(d * d) / (4.0 * t)
    emax = e.max(axis=-1, keepdims=True)
    w = np.exp(e - emax)
    return d, w / w.sum(axis=-1, keepdims=True)


def wrapped_gaussian(theta, t, L):
    """Heat kernel on a circle of circumference L at displacement theta.

    Positive by construction (sum of Gaussian images); underflowing
    values are clamped to the smallest positive normal double.
    """
    d = _image_displacements(theta, t, L)
    vals = np.exp(-(d * d) / (4.0 * t)).sum(axis=-1) / math.sqrt(4.0 * math.pi * t)
    return np.maximum(vals, TINY)


def wrapped_gaussian_log_dx(theta, t, L):
    """Spatial derivative of log kernel: image average of -d/(2t)."""
    d, w = _image_weights(theta, t, L)
    return -(w * d).sum(axis=-1) / (2.0 * t)


def wrapped_gaussian_log_dt(theta, t, L):
    """Time derivative of log kernel: -1/(2t) + image average of d^2/(4t^2)."""
    d, w = _image_weights(theta, t, L)
    return -0.5 / t + (w * d * d).sum(axis=-1) / (4.0 * t * t)
