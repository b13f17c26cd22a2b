"""Innocent-looking helper that reads the wall clock."""

import time


def stamp():
    return time.time()
