#include "worker/library_instance.hpp"

#include "common/log.hpp"

namespace vine {

using json::Object;
using json::Value;

LibraryInstance::LibraryInstance(std::string library_name, TaskId task_id,
                                 FunctionContext context)
    : library_name_(std::move(library_name)),
      task_id_(task_id),
      context_(std::move(context)) {
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

LibraryInstance::~LibraryInstance() { stop(); }

void LibraryInstance::invoke(TaskId call_id, const std::string& function,
                             const std::string& args) {
  Object o;
  o["type"] = "invoke";
  o["call_id"] = static_cast<std::int64_t>(call_id);
  o["function"] = function;
  o["args"] = args;
  to_instance_.push(Value(std::move(o)));
}

void LibraryInstance::stop() {
  bool expected = false;
  if (stopping_.compare_exchange_strong(expected, true)) {
    to_instance_.push(Value(Object{{"type", Value("stop")}}));
    to_instance_.close();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

void LibraryInstance::dispatcher_main() {
  // Phase 1: init — build the library state once (the expensive part).
  auto blueprint = LibraryRegistry::instance().lookup(library_name_);
  LibraryState state;
  {
    Object init;
    init["type"] = "init";
    init["library"] = library_name_;
    if (!blueprint.ok()) {
      init["ok"] = false;
      init["error"] = blueprint.error().to_string();
      to_worker_.push(Value(std::move(init)));
      return;
    }
    auto st = blueprint->init ? blueprint->init(context_)
                              : Result<LibraryState>(LibraryState{});
    if (!st.ok()) {
      init["ok"] = false;
      init["error"] = st.error().to_string();
      to_worker_.push(Value(std::move(init)));
      return;
    }
    state = std::move(*st);
    init["ok"] = true;
    json::Array fns;
    for (const auto& [name, _] : blueprint->functions) fns.emplace_back(name);
    init["functions"] = Value(std::move(fns));
    to_worker_.push(Value(std::move(init)));
  }

  // Phase 2: passively wait for invocations; "fork" per call.
  while (auto msg = to_instance_.pop()) {
    std::string type = msg->get_string("type");
    if (type == "stop") break;
    if (type != "invoke") continue;

    TaskId call_id = static_cast<TaskId>(msg->get_int("call_id"));
    std::string fn_name = msg->get_string("function");
    std::string args = msg->get_string("args");

    calls_.submit([this, &bp = *blueprint, state, call_id,
                   fn_name = std::move(fn_name), args = std::move(args)] {
      Object result;
      result["type"] = "result";
      result["call_id"] = static_cast<std::int64_t>(call_id);
      auto it = bp.functions.find(fn_name);
      if (it == bp.functions.end()) {
        result["ok"] = false;
        result["error"] = "library " + library_name_ + " has no function " + fn_name;
      } else {
        auto out = it->second(state, args, context_);
        if (out.ok()) {
          result["ok"] = true;
          result["output"] = std::move(*out);
        } else {
          result["ok"] = false;
          result["error"] = out.error().to_string();
        }
      }
      to_worker_.push(Value(std::move(result)));
    });
  }

  calls_.close();  // every call returns before its blueprint goes away
  to_worker_.close();
}

}  // namespace vine
