"""The OpenCV library baseline (paper section V: 'highly optimized library')."""

from repro.opencv.pipeline import build_harris_opencv_program

__all__ = ["build_harris_opencv_program"]
