"""Every dataclass in the package can be created on the oldest supported
Python.

Before 3.11, ``dataclasses`` refuses a field default that is an instance of
``list``, ``dict`` or ``set`` — subclasses included, however they hash — and
raises ``ValueError`` when the class is created, so the module defining it
fails to import.  3.11 only refuses unhashable defaults, so a run on 3.11
alone would never notice; this test applies the older rule to every
dataclass the package defines.
"""

import dataclasses
import importlib
import pkgutil

import repro


def _package_dataclasses():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                yield obj


def test_no_dataclass_field_defaults_to_a_list_dict_or_set():
    classes = list(_package_dataclasses())
    assert classes  # the walk found the package's dataclasses
    offenders = [
        f"{cls.__module__}.{cls.__qualname__}.{f.name}"
        for cls in classes
        for f in dataclasses.fields(cls)
        if isinstance(f.default, (list, dict, set))
    ]
    assert offenders == []
