"""Legacy setup shim.

An offline environment may ship setuptools without the ``wheel`` package;
there ``pip install -e .`` fails (``invalid command 'bdist_wheel'``) while
``python setup.py develop`` still installs the package and the ``repro``
command.  Keeping a ``setup.py`` (and omitting ``[build-system]`` from
pyproject.toml) keeps that path open.  All metadata lives in
pyproject.toml.
"""

from setuptools import setup

setup()
