"""qlorakit: desk-scale LoRA/QLoRA fine-tuning with a QA data pipeline
and a multiclass evaluation harness."""

from types import ModuleType as _ModuleType

from .errors import (ConfigError, InputError, NumericError, QAParseError,
                     QlorakitError, ShapeError, TransportError)
from .evalharness import (ConfusionMatrix, LabelSet, MetricReport,
                          build_confusion, compute_metrics, normalize_answer,
                          render_report, sample_eval_set)
from .lora import (LoraAdapter, QLoraLinear, load_adapters, lora_delta,
                   lora_init, merge, qlora_forward, save_adapters)
from .matrix import Matrix, as_matrix, softmax
from .model import (ModelParams, ToyModelSpec, base_fingerprint, forward,
                    forward_batch, init_adapters, init_model_params,
                    loss_and_grads, quantize_base)
from .optim import OptimizerState, TrainConfig, adamw_step, lr_at
from .qagen import (CATEGORIES, GenerationResult, LLMClientSpec,
                    MockLLMClient, QARecord, ScenarioAnnotation, build_prompt,
                    generate_dataset, parse_qa_response, split_dataset)
from .quant import (Q4BlockMatrix, Q8Vector, dequantize_4bit, dequantize_8bit,
                    footprint_report, pack_nibbles, q4_to_bytes,
                    quantize_4bit, quantize_8bit, unpack_nibbles)
from .trainer import TrainResult, evaluate_accuracy, train

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
