#ifndef DYNAPROX_NET_BLOCKING_SCOPE_H_
#define DYNAPROX_NET_BLOCKING_SCOPE_H_

namespace dynaprox::net {

// Marks a stretch in which the calling thread waits on something outside
// the process's CPU: a socket read, a free pool connection, a SET another
// response is still carrying. An event loop that runs handlers inline
// (net::EpollServer) reads these marks to decide when to add a thread: a
// loop grows only while every one of its threads is inside a scope, so a
// loop whose handlers never block keeps exactly one thread.
//
// Scopes nest; only the outermost one on a thread counts. On a thread no
// loop has claimed (a TcpServer connection thread, a test, a bench) a
// scope does nothing but two thread-local reads.
class BlockingScope {
 public:
  BlockingScope();
  ~BlockingScope();

  BlockingScope(const BlockingScope&) = delete;
  BlockingScope& operator=(const BlockingScope&) = delete;

  // What a loop installs on each thread it runs, to hear that thread's
  // outermost scopes open and close. Both calls run on the blocking
  // thread itself.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void OnBlock() = 0;
    virtual void OnUnblock() = 0;
  };

  // Installs `listener` for the calling thread (null uninstalls).
  static void SetThreadListener(Listener* listener);

 private:
  Listener* listener_;
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_BLOCKING_SCOPE_H_
