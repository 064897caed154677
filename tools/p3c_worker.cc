// Standalone wire-protocol conformance and crash harness for the
// worker-process backend (DESIGN.md §16).
//
// The production backend forks workers that inherit the phase closures
// by copy-on-write, so there is no exec in the hot path. This binary
// is the protocol's *external* conformance surface: it speaks the
// exact frame protocol of src/mapreduce/wire.h over stdin/stdout from
// a separately exec'd process, so tests (and humans, with a pipe) can
// validate the wire format against an implementation that shares no
// address space with the driver — and can die for real on request.
//
// Modes (--mode=...):
//   echo   RESULT echoes each TASK frame's input bytes back (default);
//          a TASK payload that does not decode gets a RESULT carrying
//          the kIOError instead.
//   crash  The first TASK makes the process SIGKILL itself mid-task —
//          the driver must see EOF + waitpid(killed by signal 9).
//   freeze The first TASK stops heartbeating and blocks forever —
//          the driver's heartbeat policing must SIGKILL it.
//
// Exit codes: 0 clean shutdown, 2 write failure, 3 protocol error.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "src/mapreduce/wire.h"

namespace {

using p3c::Status;
using p3c::mr::wire::Frame;
using p3c::mr::wire::FrameReader;
using p3c::mr::wire::FrameType;

int Run(const std::string& mode, double ping_seconds) {
  ::signal(SIGPIPE, SIG_IGN);
  std::mutex write_mu;
  std::atomic<bool> done{false};
  std::atomic<bool> frozen{false};
  {
    p3c::mr::wire::HelloFrame hello;
    hello.pid = static_cast<uint64_t>(::getpid());
    const Status st =
        p3c::mr::wire::WriteFrame(STDOUT_FILENO, FrameType::kHello,
                                  EncodeHelloFrame(hello));
    if (!st.ok()) return 2;
  }
  std::thread ping_thread([&] {
    const auto step = std::chrono::milliseconds(5);
    double slept = 0.0;
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(step);
      if (frozen.load(std::memory_order_relaxed)) continue;
      slept += 0.005;
      if (slept + 1e-9 < ping_seconds) continue;
      slept = 0.0;
      std::lock_guard<std::mutex> lock(write_mu);
      if (!p3c::mr::wire::WriteFrame(STDOUT_FILENO, FrameType::kPing, "")
               .ok()) {
        return;
      }
    }
  });

  FrameReader reader;
  char buf[4096];
  int exit_code = 0;
  bool running = true;
  while (running) {
    auto next = reader.Next();
    if (!next.ok()) {
      std::fprintf(stderr, "p3c_worker: %s\n",
                   next.status().message().c_str());
      exit_code = 3;
      break;
    }
    if (next->has_value()) {
      Frame frame = std::move(**next);
      if (frame.type == FrameType::kShutdown) break;
      if (frame.type != FrameType::kTask) continue;
      if (mode == "crash") {
        // A real mid-task death, not an exit path: the driver must
        // observe EOF and reap "killed by signal 9".
        ::kill(::getpid(), SIGKILL);
      }
      if (mode == "freeze") {
        // Stop heartbeating and never answer — the hung-worker
        // failure the driver's silence budget exists for.
        frozen.store(true, std::memory_order_relaxed);
        for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
      }
      p3c::mr::wire::ResultFrame result;
      auto task = p3c::mr::wire::DecodeTaskFrame(std::move(frame.payload));
      if (task.ok()) {
        result.payload = std::move(task->input);
      } else {
        result.status_code = static_cast<uint32_t>(task.status().code());
        result.message = task.status().message();
      }
      std::lock_guard<std::mutex> lock(write_mu);
      if (!p3c::mr::wire::WriteFrame(
               STDOUT_FILENO, FrameType::kResult,
               {p3c::mr::wire::EncodeResultFrameHead(result), result.payload})
               .ok()) {
        exit_code = 2;
        running = false;
      }
      continue;
    }
    const ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reader.Append(buf, static_cast<size_t>(n));
  }
  done.store(true, std::memory_order_relaxed);
  ping_thread.join();
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "echo";
  double ping_seconds = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg.rfind("--ping-seconds=", 0) == 0) {
      ping_seconds = std::atof(arg.c_str() + 15);
    } else {
      std::fprintf(stderr,
                   "usage: p3c_worker [--mode=echo|crash|freeze] "
                   "[--ping-seconds=S]\n");
      return 64;
    }
  }
  if (mode != "echo" && mode != "crash" && mode != "freeze") {
    std::fprintf(stderr, "p3c_worker: unknown mode '%s'\n", mode.c_str());
    return 64;
  }
  return Run(mode, ping_seconds);
}
