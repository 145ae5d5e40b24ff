"""Every elementwise function of the converter, perceptron and nn layers
returns its input's form: a float for a Python or numpy scalar, otherwise an
array of the input's shape, so a 0-d array stays 0-d."""

import dataclasses

import numpy as np
import pytest

from pwmperc import (ActivationKind, ConverterModel, PerceptronConfig,
                     activation, activation_deriv, chain_eval, perceptron_eval,
                     stage_map, stage_map_and_slope, stage_map_deriv, v_to_dc)

STAGE = ConverterModel.compensated()
BEHAVIORAL = PerceptronConfig.behavioral()
TRANSIENT = dataclasses.replace(BEHAVIORAL, path="transient")
W = BEHAVIORAL.max_weights()

FUNCTIONS = {
    "stage_map": lambda x: stage_map(x, STAGE),
    "stage_map_deriv": lambda x: stage_map_deriv(x, STAGE),
    "stage_map_and_slope[0]": lambda x: stage_map_and_slope(x, STAGE)[0],
    "stage_map_and_slope[1]": lambda x: stage_map_and_slope(x, STAGE)[1],
    "v_to_dc[compensated]": lambda x: v_to_dc(x, 2.5, STAGE),
    "v_to_dc[raw]": lambda x: v_to_dc(x, 2.5, ConverterModel.raw()),
    "perceptron_eval[behavioral]": lambda x: perceptron_eval(BEHAVIORAL, [x] * 3, W, 2.5),
    "perceptron_eval[transient]": lambda x: perceptron_eval(TRANSIENT, [x] * 3, W, 2.5),
    "chain_eval[behavioral]": lambda x: chain_eval(BEHAVIORAL, 2, x),
    "chain_eval[transient]": lambda x: chain_eval(TRANSIENT, 2, x),
    **{f"activation[{k.value}]": (lambda x, k=k: activation(k, x))
       for k in ActivationKind},
    **{f"activation_deriv[{k.value}]": (lambda x, k=k: activation_deriv(k, x))
       for k in ActivationKind},
}

FORMS = {
    "float": 0.5,
    "float64": np.float64(0.5),
    "0-d": np.array(0.5),
    "(1,)": np.array([0.5]),
    "(2, 2)": np.full((2, 2), 0.5),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_result_takes_the_input_form(name, form):
    x = FORMS[form]
    y = FUNCTIONS[name](x)
    if np.isscalar(x):
        assert type(y) is float
    else:
        assert type(y) is np.ndarray and y.shape == x.shape
