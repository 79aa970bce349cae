#include "sim/event.hh"

#include "base/logging.hh"
#include "sim/eventq.hh"

namespace biglittle
{

Event::Event(EventPriority prio_in, std::string name_in)
    : prio(prio_in), eventName(std::move(name_in))
{
}

Event::~Event()
{
    if (queue != nullptr)
        queue->deschedule(*this);
}

CallbackEvent::CallbackEvent(std::function<void()> fn_in,
                             EventPriority prio_in, std::string label_in)
    : Event(prio_in, std::move(label_in)), fn(std::move(fn_in))
{
    BL_ASSERT(fn != nullptr);
}

void
CallbackEvent::process()
{
    fn();
}

} // namespace biglittle
