"""A fixed cold start for the cli workload's speed reference: a fresh
interpreter imports a fixed set of standard-library modules and runs the
reference loop, the same kinds of work (unmarshalling and executing module
code, then pure-Python compute) as a `prochain` command, none of it from
the package."""

import argparse  # noqa: F401
import ast  # noqa: F401
import csv  # noqa: F401
import dataclasses  # noqa: F401
import difflib  # noqa: F401
import email.message  # noqa: F401
import fractions  # noqa: F401
import http.client  # noqa: F401
import inspect  # noqa: F401
import json  # noqa: F401
import logging  # noqa: F401
import statistics  # noqa: F401
import tarfile  # noqa: F401
import typing  # noqa: F401
import unittest  # noqa: F401
import xml.etree.ElementTree  # noqa: F401
import zipfile  # noqa: F401

import common

for _ in range(5):
    common.ref_loop()
